#!/usr/bin/env sh
# Local CI gate — the same sequence .github/workflows/ci.yml runs.
#
# Offline/vendored-registry caveat: this workspace pins every external
# dependency (serde, serde_json, rand, rayon, proptest, criterion) to the
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

say "core structure (one page-mapped core, the engine mode asked in one place)"
# The page-mapped schemes are policies over crates/core/src/pagemap.rs and
# no scheme forks on the map-engine mode; a copy of either creeping back
# fails here rather than in review.
[ -z "$(grep -rn '\.pipelined()' crates/core/src | grep -v '^crates/core/src/mapping/engine.rs:')" ] \
    || { echo "a scheme reads the map-engine mode (use MapEngine::issue_at)"; exit 1; }
[ "$(grep -rn 'fn ensure_pmt' crates/core/src | wc -l)" -eq 1 ] \
    || { echo "the lazily allocated PMT has more than one owner"; exit 1; }
# Across-FTL's area and gap-list reads and MRSM's piece loop may stamp an
# acknowledged loss themselves; every other read is the core's.
[ "$(grep -rn 'served_lost(' crates/core/src | grep -vc '^crates/core/src/\(scheme\|pagemap\).rs:')" -le 3 ] \
    || { echo "a scheme re-implements the serve-a-mapped-page block"; exit 1; }
# Non-test lines of crates/core/src (7 579 before the core existed): the
# number ROADMAP item 5's target is held to.
printf 'crates/core/src non-test lines: '
find crates/core/src -name '*.rs' ! -name reference.rs \
    -exec awk 'FNR==1{t=0} /^#\[cfg\(test\)\]/{t=1} !t{n++} END{print n}' {} +

say "bench structure (one figure binary, one tracked bench, no host clock in BENCH files)"
# Every table and figure is an entry of crates/bench/src/figures.rs rendered
# in-process by repro_all, and every committed BENCH_*.json an entry of
# crates/bench/src/tracked.rs; a per-figure binary, a spawned one or a
# per-file bench main creeping back fails here rather than in review.
[ "$(ls crates/bench/src/bin | tr '\n' ' ')" = "repro_all.rs sim_cli.rs " ] \
    || { echo "crates/bench/src/bin holds more than repro_all.rs and sim_cli.rs"; exit 1; }
[ "$(grep -c 'Command::new' crates/bench/src/bin/repro_all.rs)" -eq 0 ] \
    || { echo "repro_all spawns a subprocess (render through figures::FIGURES)"; exit 1; }
[ "$(ls crates/bench/benches | tr '\n' ' ')" = "ftl_ops.rs mapping.rs tracked.rs " ] \
    || { echo "crates/bench/benches holds more than ftl_ops.rs, mapping.rs and tracked.rs"; exit 1; }
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

say "cargo build --release"
cargo build --release

say "cargo test"
cargo test -q

say "cargo doc -D warnings"
# Every public item in every crate is documented (#![warn(missing_docs)]
# workspace-wide); broken intra-doc links or rustdoc warnings fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet

say "figures smoke (one pass: selected figures, one grid, no per-figure dumps)"
# Two trace-statistics figures and one grid figure at 1/500 length: the
# pass must render exactly the four selected, in paper order, simulate the
# 8 KB grid once (6 LUNs x 3 schemes) and write no per-figure grid copy.
fig_dir=target/ci_figures_smoke
rm -rf "$fig_dir"
AFTL_RESULTS_DIR=$fig_dir cargo run --release -q -p aftl-bench --bin repro_all -- \
    table1 table2 fig9 fig13 --scale 0.002 >/dev/null
grep '^== ' "$fig_dir/all_figures.txt" | cut -c1-12 | tr '\n' '|' \
    | grep -q '^== Table 1: |== Table 2: |== Figure 9(|== Figure 9(|== Figure 9(|== Figure 13|$' \
    || { echo "figures smoke: wrong figures or order in all_figures.txt"; exit 1; }
[ "$(grep -c '"runs": \[' "$fig_dir/grid_8k.json")" -eq 6 ] \
    || { echo "figures smoke: grid_8k.json does not hold 6 LUNs"; exit 1; }
[ "$(grep -c '"schema_version"' "$fig_dir/grid_8k.json")" -eq 18 ] \
    || { echo "figures smoke: grid_8k.json does not hold 6 x 3 runs"; exit 1; }
[ ! -e "$fig_dir/fig9.json" ] || { echo "figures smoke: fig9 dumped its own grid copy"; exit 1; }

say "fault-injection smoke"
# A short replay with nonzero fault rates must complete cleanly, actually
# inject faults, and lose no host data (retry ladder + relocation cover
# every injected failure at these rates).
smoke=target/ci_fault_smoke.json
cargo run --release -q -p aftl-bench --bin sim_cli -- \
    --scheme across --preset lun1 --scale 0.01 \
    --fault-seed 7 --read-fail-rate 0.01 \
    --program-fail-rate 0.002 --erase-fail-rate 0.002 \
    --json "$smoke" >/dev/null
grep -q '"read_fail_rate": 0.01' "$smoke" || { echo "fault config missing from manifest"; exit 1; }
if grep -q '"read_faults": 0$\|"read_faults": 0,' "$smoke"; then
    echo "smoke run injected no faults"; exit 1
fi
grep -q '"host_unrecoverable_reads": 0' "$smoke" || { echo "smoke run lost host data"; exit 1; }

say "host smoke (multi-tenant hosted run)"
# A 2-tenant WRR hosted run (~1k IOs) must complete, emit a current-schema
# manifest, and carry the per-tenant QoS section for both tenants.
host_smoke=target/ci_host_smoke.json
cargo run --release -q -p aftl-bench --bin sim_cli -- \
    --scheme across --preset lun1 --scale 0.0014 \
    --queues 2 --queue-depth 16 --arbitration wrr --tenant-weights 3,1 \
    --json "$host_smoke" >/dev/null
grep -q '"schema_version": 9' "$host_smoke" || { echo "hosted manifest is not schema v9"; exit 1; }
grep -q '"arbitration": "wrr"' "$host_smoke" || { echo "hosted manifest lost arbitration"; exit 1; }
for tenant in '"tenant0"' '"tenant1"'; do
    grep -q "$tenant" "$host_smoke" || { echo "hosted manifest missing QoS for $tenant"; exit 1; }
done

say "fleet smoke (2-device sharded run + N=1 parity)"
# A 2-device fleet run must complete, emit a schema-v7 manifest whose
# fleet section carries both devices, and the 1-device fleet must stay
# bit-identical to the hosted run (golden-digest parity test).
fleet_smoke=target/ci_fleet_smoke.json
cargo run --release -q -p aftl-bench --bin sim_cli -- \
    --scheme across --preset lun1 --scale 0.0014 \
    --devices 2 --json "$fleet_smoke" >/dev/null
grep -q '"schema_version": 9' "$fleet_smoke" || { echo "fleet manifest is not schema v9"; exit 1; }
grep -q '"devices": 2' "$fleet_smoke" || { echo "fleet manifest lost its topology section"; exit 1; }
grep -q '"d0/tenant0"' "$fleet_smoke" || { echo "fleet manifest missing per-device QoS rows"; exit 1; }
cargo test --release -q -p aftl-integration --test fig8_parity \
    fleet_single_device_matches_hosted_run_bit_for_bit >/dev/null \
    || { echo "1-device fleet diverged from the hosted run"; exit 1; }

say "pipeline smoke (pipelined replay manifest + parity)"
# A pipelined replay run must complete, emit a current-schema manifest
# with the map-engine counters actually ticking (the coalescing window
# must fire on a real trace), and the pipelined fig8 replay must stay
# flash-side bit-identical to the serial golden digest.
pipe_smoke=target/ci_pipe_smoke.json
cargo run --release -q -p aftl-bench --bin sim_cli -- \
    --scheme mrsm --preset lun1 --scale 0.01 \
    --pipeline --map-batch 8 --json "$pipe_smoke" >/dev/null
grep -q '"schema_version": 9' "$pipe_smoke" || { echo "pipelined manifest is not schema v9"; exit 1; }
grep -q '"pipeline"' "$pipe_smoke" || { echo "pipelined manifest lost its pipeline config"; exit 1; }
if grep -q '"coalesced_lookups": 0,' "$pipe_smoke"; then
    echo "pipelined run coalesced no lookups"; exit 1
fi
cargo test --release -q -p aftl-integration --test fig8_parity \
    pipelined >/dev/null \
    || { echo "pipelined replay diverged from the serial golden digest"; exit 1; }

say "learned smoke (predict-then-verify replay)"
# A learned-scheme replay with a DRAM-constrained mapping cache (two
# resident translation pages) must complete, emit a schema-v9 manifest
# (the `learned` section arrived in v8), and actually serve reads from
# verified predictions — zero predict hits would mean the model path is
# dead weight.
learned_smoke=target/ci_learned_smoke.json
cargo run --release -q -p aftl-bench --bin sim_cli -- \
    --scheme learned --preset lun1 --scale 0.01 \
    --cache-bytes 16384 --json "$learned_smoke" >/dev/null
grep -q '"schema_version": 9' "$learned_smoke" || { echo "learned manifest is not schema v9"; exit 1; }
grep -q '"learned"' "$learned_smoke" || { echo "learned manifest lost its learned counters section"; exit 1; }
if grep -q '"predict_hits": 0,' "$learned_smoke"; then
    echo "learned run served no predicted reads"; exit 1
fi

say "recovery smoke (seeded power cut -> rebuild -> oracle)"
# A crash-armed run must cut mid-workload, power-cycle, rebuild the
# mapping from the OOB journal (checkpoint + delta here), and pass the
# acknowledged-write oracle: a schema-v9 manifest whose recovery section
# reports zero lost sectors and no torn exposure.
rec_smoke=target/ci_recovery_smoke.json
cargo run --release -q -p aftl-bench --bin sim_cli -- \
    --scheme across --preset lun1 --scale 0.01 \
    --crash-at 2000 --recover --checkpoint-every 100 \
    --json "$rec_smoke" >/dev/null
grep -q '"schema_version": 9' "$rec_smoke" || { echo "crash manifest is not schema v9"; exit 1; }
grep -q '"recovery"' "$rec_smoke" || { echo "crash manifest lost its recovery section"; exit 1; }
grep -q '"mode": "checkpoint"' "$rec_smoke" || { echo "crash run did not rebuild from the checkpoint"; exit 1; }
grep -q '"lost_sectors": 0' "$rec_smoke" || { echo "recovery lost acknowledged sectors"; exit 1; }
grep -q '"torn_exposed": false' "$rec_smoke" || { echo "recovery exposed a torn request"; exit 1; }

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
