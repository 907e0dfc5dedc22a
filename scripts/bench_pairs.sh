#!/usr/bin/env bash
# Alternating parent/change pairs of one benchmark workload, under two code
# layouts, so a claimed move can be told apart from code placement.
#
#   scripts/bench_pairs.sh <workload> <seed> <pairs> [seconds] [rev]
#
# `rev` is the parent the working tree is compared with. It defaults to HEAD
# while the working tree differs from HEAD (an uncommitted change), and to
# HEAD~1 once it does not (the change is HEAD itself).
#
# Builds the benchmark package (benchmark/, untouched) of `rev` (unpacked
# with `git archive`) and of the working tree, each twice:
#   default  the release profile as it is;
#   aligned  every function aligned to 64 bytes and every block not reached
#            by fall-through to 32 bytes, which moves code placement
#            without changing the work.
# Each of the four builds has its own CARGO_TARGET_DIR under
# ${TMPDIR:-/tmp}/quit-bench-pairs. Then it runs `pairs` pairs per layout,
# the parent first in odd pairs and second in even ones, and prints for
# every end-to-end metric of BENCHMARK.json the median and quartiles of each
# side, the ratio of the medians and how many pairs the change won, then
# every pair's two values. A move counts only if it holds under both
# layouts. The run lines are kept in <work dir>/runs/ for a later look.
set -euo pipefail

usage() {
    echo "usage: $0 <workload> <seed> <pairs> [seconds] [rev]" >&2
    exit 2
}
[ $# -ge 3 ] && [ $# -le 5 ] || usage
workload=$1
seed=$2
pairs=$3
seconds=${4:-20}

repo=$(cd "$(dirname "$0")/.." && pwd)
if [ $# -eq 5 ]; then
    rev=$5
elif git -C "$repo" diff --quiet HEAD; then
    rev=HEAD~1
else
    rev=HEAD
fi
echo "parent: $rev" >&2
sha=$(git -C "$repo" rev-parse --short "$rev")
work=${TMPDIR:-/tmp}/quit-bench-pairs
parent=$work/src-$sha
runs=$work/runs
mkdir -p "$runs"

if [ ! -d "$parent" ]; then
    mkdir -p "$parent.part"
    git -C "$repo" archive "$sha" | tar -x -C "$parent.part"
    mv "$parent.part" "$parent"
fi

aligned_flags="-C llvm-args=-align-all-functions=6 -C llvm-args=-align-all-nofallthru-blocks=5"

# build <source root> <side> <layout>: prints the binary's path.
build() {
    local src=$1 side=$2 layout=$3 flags=""
    [ "$layout" = aligned ] && flags=$aligned_flags
    local target=$work/target-$side-$layout
    [ "$side" = parent ] && target=$work/target-$sha-$layout
    RUSTFLAGS="$flags" CARGO_TARGET_DIR="$target" \
        cargo build --release --quiet --offline --manifest-path "$src/benchmark/Cargo.toml" >&2
    echo "$target/release/quit-benchmark"
}

declare -A bin
for layout in default aligned; do
    echo "building $sha and the working tree ($layout layout)" >&2
    bin[parent-$layout]=$(build "$parent" parent "$layout")
    bin[change-$layout]=$(build "$repo" change "$layout")
done

# run <side> <layout> <pair>: one run from its own source root, as
# BENCHMARK.json's command runs it, its JSON line kept.
run() {
    local side=$1 layout=$2 i=$3 root=$repo
    [ "$side" = parent ] && root=$parent
    local out=$runs/$workload-$seed-$seconds-$sha-$layout-$side-$i.json
    (cd "$root" && "${bin[$side-$layout]}" --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 2>/dev/null) > "$out"
    echo "  pair $i $layout $side: $(tr -d '\n' < "$out" | cut -c1-160)" >&2
}

for i in $(seq 1 "$pairs"); do
    for layout in default aligned; do
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$layout" "$i"
            run change "$layout" "$i"
        else
            run change "$layout" "$i"
            run parent "$layout" "$i"
        fi
    done
done

python3 - "$repo/BENCHMARK.json" "$runs" "$workload-$seed-$seconds-$sha" "$pairs" <<'EOF'
import json, statistics, sys

bench, runs, stem, pairs = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])
metrics = json.load(open(bench))["end_to_end"]

def load(layout, side, i):
    return json.load(open(f"{runs}/{stem}-{layout}-{side}-{i}.json"))

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[1], q[2]

print(f"{stem}: {pairs} pairs per layout (parent | change)")
for layout in ("default", "aligned"):
    p = [load(layout, "parent", i) for i in range(1, pairs + 1)]
    c = [load(layout, "change", i) for i in range(1, pairs + 1)]
    failed = [sum(r["failed"] for r in side) for side in (p, c)]
    print(f"\n[{layout}] failed ops: parent {failed[0]}, change {failed[1]}")
    print(f"  {'metric':<16} {'parent q1 / median / q3':>28} {'change q1 / median / q3':>28} {'ratio':>7} {'wins':>6}")
    for m in metrics:
        name = m["name"]
        pv = [r["metrics"][name]["value"] for r in p]
        cv = [r["metrics"][name]["value"] for r in c]
        lower = m["better"] == "lower"
        wins = sum((b < a) if lower else (b > a) for a, b in zip(pv, cv))
        pq, cq = quartiles(pv), quartiles(cv)
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        fmt = lambda q: f"{q[0]:.4g} / {q[1]:.4g} / {q[2]:.4g}"
        print(f"  {name:<16} {fmt(pq):>28} {fmt(cq):>28} {ratio:>7.3f} {wins:>3}/{pairs}")
    print("  every pair, parent/change:")
    for m in metrics:
        name = m["name"]
        each = " ".join(f"{a['metrics'][name]['value']:.4g}/{b['metrics'][name]['value']:.4g}"
                        for a, b in zip(p, c))
        print(f"    {name:<16} {each}")
EOF
