#!/usr/bin/env sh
# Local CI gate — the same sequence .github/workflows/ci.yml runs.
#
# Offline/vendored-registry caveat: this workspace pins every external
# dependency (serde, serde_json, rand, rayon, proptest) to the
# local shim crates under shims/ via [workspace.dependencies] path entries,
# so the whole gate runs with no network and no crates.io registry. To build
# against the real crates instead, replace those path entries with version
# requirements; the shims expose (a subset of) the same APIs, so no source
# changes are needed.
#
# fmt and clippy are best-effort: the components are not installed in every
# toolchain image (rustup may be absent offline). When missing, they are
# skipped with a notice rather than failing the gate; build + test always run
# and always gate.

set -eu

say() { printf '\n==> %s\n' "$*"; }

say "cargo fmt --check"
if cargo fmt --version >/dev/null 2>&1; then
    cargo fmt --all -- --check
else
    echo "rustfmt not installed; skipping (install via: rustup component add rustfmt)"
fi

say "cargo clippy -D warnings"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "clippy not installed; skipping (install via: rustup component add clippy)"
fi

say "core structure (one core under all four schemes, a scheme is a value, the engine mode asked in one place)"
# Every scheme holds the shared core of crates/core/src/pagemap.rs and no
# scheme forks on the map-engine mode; a copy of either creeping back
# fails here rather than in review.
[ -z "$(grep -rn '\.pipelined()' crates/core/src | grep -v '^crates/core/src/mapping/engine.rs:')" ] \
    || { echo "a scheme reads the map-engine mode (use MapEngine::issue_at)"; exit 1; }
[ "$(grep -rn 'fn ensure_pmt' crates/core/src | wc -l)" -eq 1 ] \
    || { echo "the lazily allocated PMT has more than one owner"; exit 1; }
# Non-test code of crates/core/src, one "file:line" per line.
core_code=$(find crates/core/src -name '*.rs' ! -name reference.rs \
    -exec awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{print FILENAME":"$0}' {} +)
# The shared page map is LPN -> PPN and nothing else: Across-FTL's AIdx
# links are its own and live in its AMT (crates/core/src/mapping/amt.rs).
if printf '%s\n' "$core_code" | grep -E '^crates/core/src/(mapping/pmt|pagemap)\.rs:' | grep -i 'aidx'; then
    echo "the shared page map names an AIdx (Across-FTL's links live in mapping/amt.rs)"; exit 1
fi
# Every read of a mapped page is the core's serve_page.
[ "$(grep -rnE 'served_(lost|from_page)\(' crates/core/src | grep -vc '^crates/core/src/\(scheme\|pagemap\).rs:')" -eq 0 ] \
    || { echo "a scheme re-implements the serve-a-mapped-page block"; exit 1; }
# Every old-copy read takes its loss stamps from FlashArray::read_old_copy,
# whose read step FlashArray::relocate shares: one carried_content caller.
if grep -rnE 'version *[:=] *LOST_VERSION|carried_content\(' crates/core/src \
    | grep -v '^crates/core/src/scheme.rs:'; then
    echo "a scheme stamps a lost old copy itself (use FlashArray::read_old_copy)"; exit 1
fi
[ "$(awk '/^#\[cfg\(test\)\]/{exit} /carried_content\(/' crates/flash/src/array.rs | grep -vc 'fn carried_content')" -eq 1 ] \
    || { echo "crates/flash/src/array.rs reads an old copy in more than one place (use read_carrying)"; exit 1; }
# Learned-FTL has one model type: an open run is a Segment in the store's
# slab that is not yet in its order, so the index names every model by slab id.
if awk '/^#\[cfg\(test\)\]/{exit} {print FILENAME":"FNR":"$0}' crates/core/src/learned.rs \
    | grep -E 'enum Owner|struct PendingRun|RUN_BIT|slot_pos'; then
    echo "learned.rs has a second model type back (an open run is an open Segment)"; exit 1
fi
# One GC driver, one map engine and one touched set, all built by the core.
for ctor in GcState::new MapEngine::new TouchedSet::new; do
    [ "$(printf '%s\n' "$core_code" | grep -cF "$ctor")" -eq 1 ] \
        || { echo "$ctor is called outside the shared core"; exit 1; }
done
# GC's one-to-one copy is the core's PageCopier.
[ "$(printf '%s\n' "$core_code" | grep -v '^crates/core/src/gc.rs:' | grep -cF 'CopyMigrator(')" -le 1 ] \
    || { echo "a scheme wraps CopyMigrator itself (use PageCopier::copy)"; exit 1; }
# Crash recovery is one election into one image: a per-scheme image type or
# a per-scheme branch creeping back fails here rather than in review.
if grep -rnE 'enum SchemeImage|MrsmNodeImage' crates/core/src; then
    echo "a per-scheme recovery image is back (SchemeImage is one struct)"; exit 1
fi
[ "$(awk '/^#\[cfg\(test\)\]/{exit} /SchemeKind::/{n++} END{print n+0}' crates/core/src/recovery.rs)" -eq 0 ] \
    || { echo "recovery.rs branches on SchemeKind (Scheme::from_image builds the scheme)"; exit 1; }
# A scheme is a value (core::scheme::Scheme), so a device can be forked:
# no boxed scheme outside tests, and each scheme is rebuilt from an image
# in Scheme::from_image alone.
crates_code=$(find crates -name '*.rs' ! -name reference.rs \
    -exec awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{print FILENAME":"$0}' {} +)
if printf '%s\n' "$crates_code" | grep -F 'Box<dyn FtlScheme'; then
    echo "a scheme is boxed outside tests (hold a core::scheme::Scheme)"; exit 1
fi
# GC's one-to-one copy is one FlashArray::relocate call (DESIGN.md §9): an
# old-copy read or a relocating program in gc.rs, or a second caller of the
# primitive, would be a second GC copy path.
if printf '%s\n' "$core_code" | grep '^crates/core/src/gc.rs:' \
    | grep -E 'read_old_copy\(|program_relocating\('; then
    echo "gc.rs copies a page itself (use FlashArray::relocate)"; exit 1
fi
[ "$(printf '%s\n' "$crates_code" | grep -cF '.relocate(')" -eq 1 ] \
    || { echo "FlashArray::relocate needs exactly one non-test caller (CopyMigrator)"; exit 1; }
for ftl in BaselineFtl MrsmFtl AcrossFtl LearnedFtl; do
    [ "$(printf '%s\n' "$crates_code" | grep -cF "$ftl::from_image(")" -eq 1 ] \
        || { echo "$ftl::from_image is called outside Scheme::from_image"; exit 1; }
done
# Non-test lines of crates/core/src (7 579 before the core existed): the
# number ROADMAP's line target for crates/core/src is held to (named here by
# what it counts, since ROADMAP renumbers its items); recovery.rs (671 when it
# elected winners per scheme) and mrsm.rs (1 186 when it carried its own
# copy of the core) beside it.
printf 'crates/core/src non-test lines: %s\n' "$(printf '%s\n' "$core_code" | wc -l)"
printf 'crates/core/src/recovery.rs non-test lines: '
awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n}' crates/core/src/recovery.rs
printf 'crates/core/src/mrsm.rs non-test lines: '
awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n}' crates/core/src/mrsm.rs

say "flash structure (a state/kind byte and a 32-bit tag per flash page; seq lives in the crash journal)"
# Per-page metadata is sized by what each path reads (DESIGN.md §9): a
# 64-bit per-page array creeping back into the page store, or the hashed
# MRSM leaf ids that once needed 64-bit tags, fails here rather than in
# review.
if grep -nE '^ *(pub(\([a-z]+\))? )?[a-z_]+: Vec<u64>' crates/flash/src/page.rs; then
    echo "crates/flash/src/page.rs declares a Vec<u64> field (tags are 32-bit; seq is the journal's)"; exit 1
fi
if grep -rn 'splitmix64' crates/core; then
    echo "splitmix64 is back under crates/core (MRSM keys its cache by leaf index)"; exit 1
fi
printf 'page store bytes per flash page: '
awk '/^pub\(crate\) struct PageStore/,/^}/' crates/flash/src/page.rs \
    | sed -nE 's/^ *[a-z_]+: Vec<u(8|16|32|64)>,$/\1/p' | awk '{n += $1 / 8} END {print n}'

say "MRSM tables (a word per logical and per physical page; sub-page detail in slabs)"
# MRSM's tables hold what they map (DESIGN.md §9): one u32 per LPN and per
# PPN, the four sub-region words of a sub-mapped LPN and the resident set
# of a shared page in free-list slabs sized by what is live. A per-PPN
# resident set or a per-LPN four-word node creeping back fails here rather
# than in review.
if grep -nE 'Vec<ResidentSet>|Vec<\[u32; SUBS_PER_PAGE' crates/core/src/mrsm.rs; then
    echo "crates/core/src/mrsm.rs keys a resident set by PPN or a four-word node by LPN (use the slabs)"; exit 1
fi
for table in LpnTable:logical ResidentTable:physical; do
    printf 'MRSM table bytes per %s page: ' "${table#*:}"
    awk "/^struct ${table%:*} /,/^}/" crates/core/src/mrsm.rs \
        | sed -nE 's/^ *[a-z_]+: Vec<u(8|16|32|64)>,$/\1/p' | awk '{n += $1 / 8} END {print n}'
done
echo '(plus 16 B per sub-mapped LPN and 20 B per live resident set, in the slabs)'

say "mapping layer (translation pages indexed densely)"
# Every scheme numbers its translation pages densely from 0 (DESIGN.md §9),
# so the map cache indexes one record per tpid. A hash or tree map in the
# mapping layer's non-test code, or Across-FTL's AMT tpids moving back to a
# sparse base, fails here rather than in review.
if printf '%s\n' "$core_code" | grep '^crates/core/src/mapping/' \
    | grep -E 'OpenMap|HashMap|HashSet|BTreeMap'; then
    echo "crates/core/src/mapping holds a hash or tree map (index translation pages densely)"; exit 1
fi
if grep -rn 'AMT_TPID_BASE' crates; then
    echo "AMT_TPID_BASE is back (AMT tpids follow the PMT's last translation page)"; exit 1
fi
printf 'map cache bytes per translation page: '
awk '/^struct Tpage /,/^}/' crates/core/src/mapping/cache.rs \
    | sed -nE 's/^ *[a-z_]+: u(8|16|32|64),$/\1/p' | awk '{n += $1 / 8} END {print n}'

say "bench structure (one figure binary, one tracked bench, no host clock in BENCH files)"
# Every table and figure is an entry of crates/bench/src/figures.rs rendered
# in-process by repro_all, and every committed BENCH_*.json an entry of
# crates/bench/src/tracked.rs; a per-figure binary, a spawned one or a
# per-file bench main creeping back fails here rather than in review. Host
# time is benchmark/'s alone (its isolated per-call rows time the map
# lookups and scheme calls), so the one bench target is the tracked one.
[ "$(ls crates/bench/src/bin | tr '\n' ' ')" = "repro_all.rs sim_cli.rs " ] \
    || { echo "crates/bench/src/bin holds more than repro_all.rs and sim_cli.rs"; exit 1; }
[ "$(grep -c 'Command::new' crates/bench/src/bin/repro_all.rs)" -eq 0 ] \
    || { echo "repro_all spawns a subprocess (render through figures::FIGURES)"; exit 1; }
[ "$(ls crates/bench/benches | tr '\n' ' ')" = "tracked.rs " ] \
    || { echo "crates/bench/benches holds more than tracked.rs (host time is benchmark/'s)"; exit 1; }
# Committed files hold simulated results only: host time is benchmark/'s.
if grep -lE '"(ns_per_req|req_per_sec|wall_ns|samples|baseline)"' BENCH_*.json; then
    echo "a committed BENCH file carries a host-clock or baseline field"; exit 1
fi
# Non-test lines of the figure harness (821 when it was twelve binaries).
printf 'figure harness non-test lines: '
awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n}' \
    crates/bench/src/lib.rs crates/bench/src/figures.rs crates/bench/src/bin/repro_all.rs
# Non-test lines of the tracked-bench harness (2 575 when it was six mains).
printf 'tracked harness non-test lines: '
awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n}' \
    crates/bench/src/replay.rs crates/bench/src/hostbench.rs crates/bench/src/fleetbench.rs \
    crates/bench/src/gctail.rs crates/bench/src/learnedbench.rs crates/bench/src/recoverybench.rs \
    crates/bench/src/tracked.rs crates/bench/benches/tracked.rs

say "dependency use (every dependency a crate declares is named by a file it builds)"
# A dependency edge no source file uses still costs every build and hides
# what a crate really needs. Each crates/*/Cargo.toml dependency, hyphens
# read as underscores, must appear as a path or macro (NAME:: or NAME!) in
# a .rs file the package builds: its own tree, the targets its manifest
# names by path (aftl-integration's tests/ and examples/) and the modules
# those declare (tests/common).
for manifest in crates/*/Cargo.toml; do
    dir=${manifest%/Cargo.toml}
    files=$({ find "$dir" -name '*.rs'
        sed -nE 's/^path = "(.*\.rs)"$/\1/p' "$manifest" | while read -r target; do
            echo "$dir/$target"
            sed -nE 's/^mod ([a-z_0-9]+);$/\1/p' "$dir/$target" | while read -r m; do
                ls "$dir/${target%/*}/$m.rs" "$dir/${target%/*}/$m/mod.rs" 2>/dev/null || true
            done
        done; } | sort -u)
    deps=$(awk '/^\[(dev-)?dependencies\]/{s=1; next} /^\[/{s=0} s && /^[a-z_-]+ *=/{print $1}' "$manifest" | tr - _)
    for dep in $deps; do
        printf '%s\n' "$files" | xargs grep -qE "(^|[^a-z0-9_])$dep(::|!)" \
            || { echo "$manifest declares $dep, which no file the package builds names"; exit 1; }
    done
done
printf 'dependency edges declared under crates/: '
awk '/^\[(dev-)?dependencies\]/{s=1; next} /^\[/{s=0} s && /^[a-z_-]+ *=/{n++} END{print n}' crates/*/Cargo.toml

say "sim structure (one device step, one measured window, one report assembler)"
# Replay, hosted and fleet runs all drive experiment::DeviceRun::step, which
# fills metrics::Window, and hand it to report::assemble, the one RunReport
# literal outside tests; a second copy creeping back fails here rather than
# in review.
literals=$(find crates/sim/src crates/bench/src -name '*.rs' -exec awk \
    'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t && /(^ *|[=(] *)RunReport [{]/ {print FILENAME":"FNR}' {} +)
[ "$(printf '%s\n' "$literals" | grep -c .)" -eq 1 ] \
    || { echo "RunReport is built in more than one place:"; echo "$literals"; exit 1; }
# A power cut is an option of every run (config.crash, honoured by the
# step), not a run driver of its own, and no run mode refuses it.
if grep -rn 'fn run_crash_' crates; then
    echo "a crash run driver is back (arm config.crash and replay through the step)"; exit 1
fi
if awk '/^fn check_combinations/,/^}/' crates/bench/src/bin/sim_cli.rs | grep -E \
    'invalid\("--crash-at"|(crash|power).*(devices|queues)|(devices|queues).*(crash|power)'; then
    echo "check_combinations refuses a power cut under --devices/--queues"; exit 1
fi
# One aging-and-fork loop: the figure grids, the ablation and the learned
# traffic rows all replay through experiment::sweep, the one non-test
# caller of Ssd::fork; a private grid or fork loop creeping back fails
# here rather than in review.
if grep -rn 'fn run_grid' crates; then
    echo "run_grid is back (sweep the experiment devices)"; exit 1
fi
forks=$(find crates/sim/src crates/bench/src -name '*.rs' -exec awk \
    'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} /^ *(pub(\([a-z]+\))? )?fn / {match($0, /fn [a-z_0-9]+/); f=substr($0, RSTART+3, RLENGTH-3)}
     !t && /\.fork\(\)/ {print FILENAME":"FNR" in fn "f}' {} +)
[ "$(printf '%s\n' "$forks" | grep -c .)" -eq 1 ] \
    && printf '%s\n' "$forks" | grep -q '^crates/sim/src/experiment.rs:[0-9]* in fn sweep$' \
    || { echo "Ssd::fork is called outside experiment::sweep:"; echo "$forks"; exit 1; }
# Non-test lines of the simulator and its CLI (4 274 with four run loops
# and a hand-rolled flag parser; 3 917 with a crash run loop of its own).
printf 'crates/sim/src + sim_cli.rs non-test lines: '
{ find crates/sim/src -name '*.rs'; echo crates/bench/src/bin/sim_cli.rs; } \
    | xargs awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n}'
# Non-test lines of the simulator and the whole harness (6 099 with a grid
# loop, the ablation's aging and learnedbench's replay loop of their own).
printf 'crates/sim/src + crates/bench/src non-test lines: '
find crates/sim/src crates/bench/src -name '*.rs' \
    | xargs awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n}'

say "trace structure (presets carry their fitted fractions; the fit runs in tests)"
# A preset's misaligned fraction is a constant fitted at development time
# and checked by synth::vdi's table2_calibration_* tests; a fit
# on every LunPreset::spec call costs each set-up 10-18 ms for a number
# that depends on neither scale nor seed.
if awk '/^impl LunPreset/,/^}/' crates/trace/src/synth/vdi.rs | grep -F 'calibrated('; then
    echo "LunPreset fits its fraction on every call (bake the fit into misaligned_fraction)"; exit 1
fi

say "request-ahead prefetch (one unsafe, in the prefetch hint; replay, aging and hosted dispatch prefetch)"
# The tree's one unsafe block is aftl_flash::prefetch's _mm_prefetch, a
# hint with no architectural effect (DESIGN.md §9); a second one in
# non-test code fails here rather than in review.
unsafes=$(printf '%s\n' "$crates_code" | grep -vE '^[^:]+: *//' | grep -wF unsafe || true)
[ "$(printf '%s\n' "$unsafes" | grep -c .)" -eq 1 ] \
    && printf '%s\n' "$unsafes" | grep -q '^crates/flash/src/prefetch.rs:' \
    || { echo "non-test code under crates/ has an unsafe outside aftl_flash::prefetch:"; echo "$unsafes"; exit 1; }
# The replay loop, aging's overwrite pass and the host engine's dispatch
# (hosted and fleet runs) all prefetch ahead.
for loop in crates/sim/src/experiment.rs:run_on_device_keep crates/sim/src/warmup.rs:age \
    crates/host/src/engine.rs:run_host; do
    awk "/^pub fn ${loop#*:}[(<]/,/^}/" "${loop%:*}" | grep -qF '.prefetch(' \
        || { echo "${loop#*:} (${loop%:*}) does not call .prefetch("; exit 1; }
done

say "cargo build --release"
cargo build --release

say "cargo test"
cargo test -q

say "cargo doc -D warnings"
# Every public item in every crate is documented (#![warn(missing_docs)]
# workspace-wide); broken intra-doc links or rustdoc warnings fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

say "figures smoke (one pass: selected figures, one grid, no per-figure dumps)"
# Two trace-statistics figures, one grid figure and the seed study at
# 1/500 length: the pass must render exactly the five selected, in paper
# order, simulate the 8 KB grid once (6 LUNs x 3 schemes; seed 0 of the
# study reads it), write no per-figure grid copy, and write the study's
# 4 seeds x 8 headline reductions.
fig_dir=target/ci_figures_smoke
rm -rf "$fig_dir"
AFTL_RESULTS_DIR=$fig_dir cargo run --release -q -p aftl-bench --bin repro_all -- \
    table1 table2 fig9 fig13 seeds --scale 0.002 >/dev/null
grep '^== ' "$fig_dir/all_figures.txt" | cut -c1-12 | tr '\n' '|' \
    | grep -q '^== Table 1: |== Table 2: |== Figure 9(|== Figure 9(|== Figure 9(|== Figure 13|== Seeds: Ac|$' \
    || { echo "figures smoke: wrong figures or order in all_figures.txt"; exit 1; }
[ "$(grep -c '"runs": \[' "$fig_dir/grid_8k.json")" -eq 6 ] \
    || { echo "figures smoke: grid_8k.json does not hold 6 LUNs"; exit 1; }
[ "$(grep -c '"schema_version"' "$fig_dir/grid_8k.json")" -eq 18 ] \
    || { echo "figures smoke: grid_8k.json does not hold 6 x 3 runs"; exit 1; }
[ ! -e "$fig_dir/fig9.json" ] || { echo "figures smoke: fig9 dumped its own grid copy"; exit 1; }
[ "$(grep -c '"seed": ' "$fig_dir/seeds.json")" -eq 4 ] \
    && [ "$(grep -cE '^ *"[a-zA-Z/ ]+ vs (FTL|MRSM)",$' "$fig_dir/seeds.json")" -eq 32 ] \
    || { echo "figures smoke: seeds.json does not hold 4 seeds x 8 reductions"; exit 1; }

say "sim_cli smokes (one row per run mode: name | flags | must match | must not match)"
# Each row runs sim_cli on lun1 and greps the manifest it writes: every
# ';'-separated pattern of the third field must match, none of the fourth.
#   fault    — faults injected, retried and relocated, no host data lost;
#   host     — 2 WRR tenants with QoS rows, and the event trace as JSONL;
#   fleet    — 2 devices with the topology section and per-device rows;
#   pipeline — the coalescing window fires on a real trace;
#   learned  — a DRAM-starved learned replay serves predicted reads;
#   recovery — cut, checkpoint + delta rebuild, oracle clean;
#   recovery-hosted — the same under two host tenants.
check_patterns() { # FILE MUST(1)|MUST-NOT(0) PATTERNS
    old_ifs=$IFS; IFS=';'; set -f
    for pat in $3; do
        if grep -q -- "$pat" "$1"; then found=1; else found=0; fi
        [ "$found" = "$2" ] || { IFS=$old_ifs; set +f; echo "$1: pattern $pat (want $2)"; return 1; }
    done
    IFS=$old_ifs; set +f
}
while IFS='|' read -r name flags want deny; do
    out=target/ci_smoke_$name.json
    rm -f "$out" "${out%.json}.jsonl"
    # shellcheck disable=SC2086 # flags are word-split on purpose
    cargo run --release -q -p aftl-bench --bin sim_cli -- --preset lun1 $flags --json "$out" </dev/null >/dev/null \
        || { echo "$name smoke: sim_cli failed"; exit 1; }
    check_patterns "$out" 1 "\"schema_version\": 9;$want" || exit 1
    [ -z "$deny" ] || check_patterns "$out" 0 "$deny" || exit 1
done <<'ROWS'
fault|--scheme across --scale 0.01 --fault-seed 7 --read-fail-rate 0.01 --program-fail-rate 0.002 --erase-fail-rate 0.002|"read_fail_rate": 0.01;"host_unrecoverable_reads": 0|"read_faults": 0,
host|--scheme across --scale 0.0014 --queues 2 --queue-depth 16 --arbitration wrr --tenant-weights 3,1 --trace-events 64|"arbitration": "wrr";"tenant0";"tenant1"|
fleet|--scheme across --scale 0.0014 --devices 2|"devices": 2;"d0/tenant0";"d1/tenant0"|
pipeline|--scheme mrsm --scale 0.01 --pipeline --map-batch 8|"pipeline";"map_engine"|"coalesced_lookups": 0,
learned|--scheme learned --scale 0.01 --cache-bytes 16384|"learned"|"predict_hits": 0,
recovery|--scheme across --scale 0.01 --crash-at 2000 --recover --checkpoint-every 100|"recovery";"mode": "checkpoint";"lost_sectors": 0;"torn_exposed": false|"sim_span_ns": 0,
recovery-hosted|--scheme across --scale 0.01 --queues 2 --crash-at 2000 --recover --checkpoint-every 100|"recovery";"mode": "checkpoint";"lost_sectors": 0;"torn_exposed": false|"sim_span_ns": 0,
ROWS
# Every single-device run writes its event trace, hosted ones included.
[ "$(wc -l <target/ci_smoke_host.jsonl)" -eq 64 ] \
    || { echo "host smoke: the event trace is not 64 JSONL lines"; exit 1; }
# The 1-device fleet is the hosted run, the pipelined replay the serial
# one on the flash side, and every driver's manifest is its golden.
cargo test --release -q -p aftl-integration --test fig8_parity >/dev/null \
    || { echo "a driver or engine mode diverged from its golden (tests/fig8_parity.rs)"; exit 1; }

say "profiler smoke (tools/prof: samples of a sim_cli run land in first-party frames)"
# tools/prof/sampler.c is C preloaded into the command, outside crates/, so
# the one-unsafe guard above does not cover it. Skipped, like fmt and
# clippy, when the C compiler or addr2line is missing.
if command -v cc >/dev/null 2>&1 && command -v addr2line >/dev/null 2>&1; then
    rm -rf target/ci_prof
    AFTL_RESULTS_DIR=target/ci_prof sh tools/prof/prof.sh target/ci_prof -- \
        target/release/sim_cli --scheme across --preset lun1 --scale 0.05 </dev/null >/dev/null 2>&1 \
        || { echo "profiler smoke: prof.sh or sim_cli failed"; exit 1; }
    awk '/^share by layer/{s=1; next} s && $3 != "unattributed" {n += $1} END {exit !(n > 0)}' \
        target/ci_prof/report.txt \
        || { echo "profiler smoke: no sample landed in a first-party frame"; cat target/ci_prof/report.txt; exit 1; }
    sed -n '/^share by layer/,$p' target/ci_prof/report.txt
else
    echo "cc or addr2line not installed; skipping"
fi

say "tracked freshness (every committed BENCH_*.json == a fresh run)"
# The five tracked files hold simulated values only, so each is a pure
# function of the code: a change to any scheme, GC order, aging or host
# model moves them, and the committed copies must move in the same PR.
# The bench rewrites them in place (gates on; a few seconds once built)
# and git must see no change.
cargo bench -q -p aftl-bench --bench tracked
git diff --exit-code --stat -- 'BENCH_*.json' \
    || { echo "a BENCH_*.json is stale: commit the regenerated file (README, Benchmarks)"; exit 1; }

say "benchmark smoke + tests (benchmark/ is its own workspace)"
# Nothing above compiles benchmark/: it stands outside the root workspace
# and path-depends on crates/*, so an API change there could break the PR
# pipeline's benchmark unnoticed. --smoke runs all five workloads at 1/100
# length through the timed and the traced path (schema, sim_digest
# agreement, verify pass); --test runs the package's own tests.
bash benchmark/run.sh --smoke >/dev/null
bash benchmark/run.sh --test -q

say "CI gate passed"
