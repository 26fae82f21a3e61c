#!/usr/bin/env bash
# Same-host A/B of the benchmark: a base revision against the working tree.
#
#   scripts/ab.sh <base-rev> <workload>[,<workload>...] [pairs]
#
# Builds perfbench twice in a temporary directory outside the repository:
# once from `git archive <base-rev>`, once from a copy of the working tree
# (tracked and untracked files, .gitignore respected, uncommitted edits
# included). Then, for each workload, it runs `pairs` pairs (default 10)
# of `perfbench --seconds 30 --trace 0`: pair i uses seed i on both
# sides, and the side that runs first alternates from pair to pair. Runs
# never overlap.
#
# For each of the four end-to-end metrics in BENCHMARK.json it prints
# each side's median and quartiles, how many pairs the change won (ties
# count as lost), and the base's IQR; then the share of failed operations
# on each side. A claimed gain holds when the change wins nearly every
# pair and the gap between the medians exceeds the base's IQR.
#
# Run it from anywhere inside the repository. It writes nothing into the
# repository and removes its temporary directory on exit; set TMPDIR to
# choose where that directory goes (each build takes about 1 GB).
set -eu

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <base-rev> <workload>[,<workload>...] [pairs]" >&2
    exit 2
fi
base_rev=$1
workloads=$2
pairs=${3:-10}
case $pairs in
'' | *[!0-9]*)
    echo "pairs must be a positive number, got '$pairs'" >&2
    exit 2
    ;;
esac
[ "$pairs" -gt 0 ] || {
    echo "pairs must be a positive number" >&2
    exit 2
}

root=$(git rev-parse --show-toplevel)
cd "$root"
base_commit=$(git rev-parse --verify "$base_rev^{commit}")
tmp=$(mktemp -d "${TMPDIR:-/tmp}/ldp-ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

echo "==> base $base_rev ($base_commit) vs. the working tree at $(git rev-parse --short HEAD)"
mkdir -p "$tmp/base" "$tmp/change"
git archive "$base_commit" | tar -x -C "$tmp/base"
git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do
        # Skip tracked files deleted in the working tree.
        if [ -e "$f" ]; then printf '%s\0' "$f"; fi
    done |
    tar --null -T - -cf - | tar -x -C "$tmp/change"

for side in base change; do
    echo "==> building perfbench ($side)"
    (cd "$tmp/$side" && CARGO_TARGET_DIR="$tmp/$side-target" \
        cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml)
done

# One line per run: workload, pair, side, result JSON.
results="$tmp/results.tsv"
: >"$results"
run() { # run <side> <workload> <pair>
    local out
    out=$(cd "$tmp/$1" && "$tmp/$1-target/release/perfbench" \
        --workload "$2" --seed "$3" --seconds 30 --trace 0 | grep '^{"correct"' | tail -n 1)
    if [ -z "$out" ]; then
        echo "perfbench ($1, $2, seed $3) printed no result line" >&2
        exit 1
    fi
    printf '%s\t%s\t%s\t%s\n' "$2" "$3" "$1" "$out" >>"$results"
}

for w in $(echo "$workloads" | tr ',' ' '); do
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then order="base change"; else order="change base"; fi
        echo "==> $w pair $i/$pairs (seed $i, $order)"
        for side in $order; do run "$side" "$w" "$i"; done
    done
done

python3 - "$results" <<'EOF'
import json
import sys

METRICS = [
    ("answer_ratio", "higher"),
    ("cpu_us_per_answer", "lower"),
    ("replay_rss_mb", "lower"),
    ("setup_s", "lower"),
]


def quartiles(values):
    """Q1, median, Q3 by linear interpolation between order statistics."""
    v = sorted(values)

    def at(p):
        k = (len(v) - 1) * p
        lo = int(k)
        hi = min(lo + 1, len(v) - 1)
        return v[lo] + (v[hi] - v[lo]) * (k - lo)

    return at(0.25), at(0.5), at(0.75)


runs = {}
for line in open(sys.argv[1]):
    workload, pair, side, result = line.rstrip("\n").split("\t", 3)
    runs.setdefault(workload, {}).setdefault(int(pair), {})[side] = json.loads(result)

for workload, by_pair in runs.items():
    pairs = [by_pair[p] for p in sorted(by_pair)]
    print(f"\n{workload}: {len(pairs)} pairs")
    print(
        f"{'metric':<18} {'base median [Q1, Q3]':<32} {'change median [Q1, Q3]':<32} "
        f"{'Δ median':>8} {'won':>6} {'base IQR':>10}"
    )
    for name, better in METRICS:
        base = [p["base"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        sign = 1 if better == "higher" else -1
        won = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        delta = (cmed - bmed) / bmed * 100 if bmed else float("nan")
        base_col = f"{bmed:.4f} [{bq1:.4f}, {bq3:.4f}]"
        change_col = f"{cmed:.4f} [{cq1:.4f}, {cq3:.4f}]"
        print(
            f"{name:<18} {base_col:<32} {change_col:<32} {delta:>+7.1f}% "
            f"{won:>3}/{len(pairs):<2} {bq3 - bq1:>10.4f}"
        )
    for side in ("base", "change"):
        failed = sum(p[side]["failed"] for p in pairs)
        attempted = sum(p[side]["attempted"] for p in pairs)
        share = failed / attempted if attempted else 0.0
        print(f"failed operations ({side}): {failed} of {attempted} ({share:.4%})")
EOF
