#!/bin/sh
# Sample where a command spends its CPU time, by layer of the simulator.
#
#   tools/prof/prof.sh OUT -- CMD [ARG...]
#
# Builds sampler.c into OUT/, runs CMD with it preloaded (SIGPROF once per
# ms of CPU time, but at most once per kernel tick: CONFIG_HZ, commonly 250
# per CPU-second; every process CMD starts writes OUT/raw.<pid> at exit),
# symbolises the samples with addr2line (the release profile carries line
# tables, so inlined frames resolve) and prints two tables, also written to
# OUT/report.txt:
#   - the innermost source lines with the most samples;
#   - the share of samples per layer, by the source file of the innermost
#     frame under crates/ or benchmark/src (the layer map of ROADMAP item
#     15); samples with no such frame are "unattributed".
# Exits with CMD's status. CMD must be the ELF program to profile, not a
# program that execs another (env, nice, taskset, sh, a script): the timer
# stays armed across an exec that sampler.c cannot intercept, so a tick
# that lands before the new image's own sampler loads kills it (SIGPROF).
set -eu
if [ $# -lt 3 ] || [ "$2" != "--" ]; then
    echo "usage: $0 OUT -- CMD [ARG...]" >&2
    exit 2
fi
out=$1
shift 2
here=$(cd "$(dirname "$0")" && pwd)
mkdir -p "$out"
out=$(cd "$out" && pwd)
prog=$(command -v "$1") || { echo "$0: $1: not found" >&2; exit 2; }
if [ "$(head -c 4 "$prog" | od -An -tx1 | tr -d ' ')" != 7f454c46 ]; then
    echo "$0: $1 is not an ELF executable; profile the program it runs" >&2
    exit 2
fi
rm -f "$out"/raw.* "$out"/sym.* "$out"/report.txt
cc -O2 -shared -fPIC -o "$out/sampler.so" "$here/sampler.c" -ldl

status=0
PROF_OUT="$out/raw" LD_PRELOAD="$out/sampler.so" "$@" || status=$?

# hex <-> number in plain awk (mawk has no strtonum); addresses stay below
# 2^53, so doubles hold them exactly.
hexfns='
function hex2num(h,   i, n) {
    n = 0
    for (i = 1; i <= length(h); i++) n = n * 16 + index("0123456789abcdef", substr(h, i, 1)) - 1
    return n
}
function num2hex(n,   h) {
    h = ""
    do { h = substr("0123456789abcdef", n % 16 + 1, 1) h; n = int(n / 16) } while (n > 0)
    return h
}'

# 1. Each sample's object and address within it: "object<TAB>rel<TAB>abs".
for raw in "$out"/raw.*; do
    [ -e "$raw" ] || continue
    awk "$hexfns"'
        BEGIN { FS = "[ \t]+" }
        $1 == "--samples--" { body = 1; next }
        !body {
            split($1, r, "-")
            if ($6 == "") next
            if ($3 == "00000000" && !($6 in base)) base[$6] = hex2num(r[1])
            if (substr($2, 3, 1) != "x") next
            nmap++; lo[nmap] = hex2num(r[1]); hi[nmap] = hex2num(r[2]); obj[nmap] = $6
            next
        }
        {
            ip = hex2num($1); found = 0
            for (m = 1; m <= nmap; m++)
                if (ip >= lo[m] && ip < hi[m]) { found = m; break }
            if (!found) { print "[unknown]\t0\t0"; next }
            o = obj[found]
            print o "\t" num2hex(ip - base[o]) "\t" num2hex(ip)
        }' "$raw"
done > "$out/sym.samples"

# 2. Symbolise each object's distinct addresses: "object<TAB>addr<TAB>frames",
#    each frame "function@file:line", innermost first, separated by ";".
cut -f1 "$out/sym.samples" | sort -u | while IFS= read -r o; do
    if [ "$o" = "[unknown]" ] || [ ! -r "$o" ]; then continue; fi
    # ET_EXEC (2) is linked at its load address; ET_DYN is relative.
    col=2
    [ "$(od -An -tu1 -j16 -N1 "$o" | tr -d ' ')" = 2 ] && col=3
    awk -F'\t' -v o="$o" -v c="$col" '$1 == o { print $c }' "$out/sym.samples" | sort -u |
        addr2line -a -f -i -C -e "$o" |
        awk -v o="$o" '
            /^0x[0-9a-f]+$/ { if (a != "") print o "\t" a "\t" f; a = $0; sub(/^0x0*/, "", a); if (a == "") a = "0"; f = ""; n = 0; next }
            {
                n++
                if (n % 2 == 1) { fn = $0; sub(/::h[0-9a-f]+$/, "", fn); next }
                loc = $0; sub(/ \(discriminator [0-9]+\)$/, "", loc)
                f = f (f == "" ? "" : ";") fn "@" loc
            }
            END { if (a != "") print o "\t" a "\t" f }'
done > "$out/sym.frames"

# 3. Join, count, and print the two tables. A frame's layer is read from
#    its source file (inlined frames carry short names but full paths).
awk -F'\t' '
function layer_of(file) {
    if (file ~ /crates\/flash\/src\/(victims|allocator)\.rs:/) return "allocator + victim index"
    if (file ~ /crates\/flash\/src\//) return "flash array/timelines"
    if (file ~ /crates\/core\/src\/mapping\//) return "mapping cache/engine"
    if (file ~ /crates\/core\/src\/gc\.rs:/) return "GC"
    if (file ~ /crates\/core\/src\//) return "scheme logic"
    if (file ~ /crates\/sim\/src\/observe\//) return "observer"
    if (file ~ /crates\/sim\/src\/report\.rs:/) return "report assembly"
    if (file ~ /crates\/host\/src\//) return "host engine"
    if (file ~ /crates\/trace\/src\//) return "trace generation"
    if (file ~ /(crates|benchmark)\/[a-z_]+\/src\/|benchmark\/src\//) return "device, drivers, other aftl_"
    return ""
}
function layer(frames,   n, i, fr, l) {
    n = split(frames, fr, ";")
    for (i = 1; i <= n; i++) {
        l = layer_of(substr(fr[i], index(fr[i], "@") + 1))
        if (l != "") return l
    }
    return "unattributed"
}
FNR == NR {
    frames[$1 SUBSEP $2] = $3
    next
}
{
    total++
    key = $1 SUBSEP ($2 == "" ? "0" : $2)
    key2 = $1 SUBSEP $3
    fr = (key in frames) ? frames[key] : ((key2 in frames) ? frames[key2] : "")
    inner = fr
    sub(/;.*/, "", inner)
    file = substr(inner, index(inner, "@") + 1)
    sub(/@.*/, "", inner)
    if (inner == "" || inner == "??") inner = "?? (" $1 ")"
    else if (match(file, /(crates|benchmark|library)\/.*/)) inner = substr(file, RSTART) "  " inner
    else if (file !~ /^\?\?/) inner = file "  " inner
    top[inner]++
    share[layer(fr)]++
}
END {
    if (total == 0) { print "no samples"; exit }
    printf "%d samples\n\ntop innermost source lines (and the function addr2line names)\n", total
    for (k in top) printf "%7d %6.2f%%  %s\n", top[k], 100 * top[k] / total, k | "sort -rn | head -25"
    close("sort -rn | head -25")
    print "\nshare by layer (innermost frame in a first-party source file)"
    for (k in share) printf "%7d %6.2f%%  %s\n", share[k], 100 * share[k] / total, k | "sort -rn"
    close("sort -rn")
}' "$out/sym.frames" "$out/sym.samples" | tee "$out/report.txt"
exit "$status"
