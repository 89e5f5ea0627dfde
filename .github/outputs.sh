#!/usr/bin/env bash
# Write the outputs that must not change with the BLAS thread count into DIR.
#
#     OPENBLAS_NUM_THREADS=1 .github/outputs.sh DIR
#
# Identical (config, command) pairs give identical bytes (ROADMAP item 1),
# so two runs at different thread counts, or on two commits that should
# not change any output, give directories that `diff -r` finds equal:
# - every table and report on the bundled design, in both formats;
# - a 1000 x 1000 sweep (ROADMAP item 6's box), the scale of the design
#   kernel's stable-row index;
# - a 300 x 300 sweep of the default box with every flag (15 365 OK,
#   74 625 snap-in and 10 breakdown rows), whose flag column the CSV
#   writer gathers by code;
# - the oracle at ten levels, whose warm-started refinement takes dot
#   products over the stretch of each grid that its levels reach (for the
#   bundled design's wall states, 1063 or 1559 of the doubled grid's 7999
#   interior points);
# - on a 4003-point grid, seeded on every 2nd point;
# - on an 801-point grid at ten levels, where the bundled design's levels
#   above E_2 fail the certificate and are bisected;
# - on ROADMAP item 18's convex 206 x 15 x 8 nm beam at the cubic-free
#   gap, whose one well puts the stretches over 82 to 93 % of the grid;
# - on a 203-point grid, the smallest, seeded on 102 points, where the
#   seed grid's bisection windows and the windowed Sturm count's guard
#   rows are tightest;
# - at g = 1 kHz, deep in the dispersive regime, where the JC and bus
#   oracles resolve shifts of a few 1e-9 of the qubit frequency.
# Each output is written by a fresh `python -m afq.cli` process. Then one
# process runs the same commands through `afq.cli.main` twice and keeps the
# second pass, which finds the per-process caches (README, "Per-process
# caches") warm; its directory must equal DIR, or the script fails.
set -euo pipefail

if [ $# -ne 1 ]; then
    echo "usage: $0 DIR" >&2
    exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
out=$(cd "$1" && pwd)
cfg=$(mktemp -d)
trap 'rm -rf "$cfg"' EXIT
paper="$root/src/afq/paper.cfg"

afq() {
    PYTHONPATH="$root/src" python -m afq.cli "$@" --quiet
}

cat "$paper" - > "$cfg/box1000.cfg" <<'EOF'
sweep.length_min_nm = 400
sweep.length_max_nm = 800
sweep.length_points = 1000
sweep.x_over_sigma_min = 1.15
sweep.x_over_sigma_max = 1.5
sweep.x_points = 1000
EOF
cat "$paper" - > "$cfg/flags300.cfg" <<'EOF'
sweep.length_points = 300
sweep.x_points = 300
EOF
cat "$paper" - > "$cfg/levels10.cfg" <<'EOF'
oracle.n_levels = 10
EOF
cat "$paper" - > "$cfg/grid4003.cfg" <<'EOF'
oracle.grid_points = 4003
EOF
cat "$paper" - > "$cfg/grid801.cfg" <<'EOF'
oracle.grid_points = 801
oracle.n_levels = 10
EOF
cat "$paper" - > "$cfg/grid203.cfg" <<'EOF'
oracle.grid_points = 203
EOF
grep -v '^cantilever\.' "$paper" > "$cfg/convex.cfg"
cat >> "$cfg/convex.cfg" <<'EOF'
cantilever.length_nm = 206
cantilever.width_nm = 15
cantilever.thickness_nm = 8
bias.x_over_sigma = 1.366109650946
EOF
cat "$paper" - > "$cfg/g1khz.cfg" <<'EOF'
cqad.g_mhz = 0.001
EOF

# one run a line: the output file, then the afq arguments (no spaces in any)
{
    for cmd in bias spectrum sweep cqad oracle; do
        for fmt in csv json; do
            echo "$cmd.$fmt $cmd --format $fmt"
        done
    done
    echo "sweep1000.csv sweep --config $cfg/box1000.cfg"
    echo "sweep-flags.csv sweep --config $cfg/flags300.cfg"
    for name in levels10 grid4003 grid801 convex grid203 g1khz; do
        echo "oracle-$name.json oracle --config $cfg/$name.cfg --format json"
    done
} > "$cfg/runs"

while read -r file args; do
    # shellcheck disable=SC2086
    afq $args --out "$out/$file" < /dev/null
done < "$cfg/runs"

mkdir "$cfg/warm"
PYTHONPATH="$root/src" python - "$cfg/runs" "$cfg/warm" <<'PY'
import sys

from afq.cli import main

runs, out = sys.argv[1:]
with open(runs) as fh:
    lines = [line.split() for line in fh]
for _ in range(2):      # the second pass overwrites the first's files
    for file, *args in lines:
        if main([*args, "--out", f"{out}/{file}", "--quiet"]):
            sys.exit(f"afq {' '.join(args)}: nonzero exit")
PY
diff -r "$out" "$cfg/warm"
