#!/usr/bin/env bash
# Per-layer A/B of the host-clock benchmark's traced run: the working tree
# against a parent revision, layer by layer.
#
#   scripts/hostperf_layers.sh <parent-rev> <workload> [runs]
#
# The parent is unpacked with `git archive` into .bench_build/layers/parent
# and built in its own target directory; the change is built where it
# stands. Then `runs` (default 3) traced runs a side, `run --workload W
# --trace 1`, the parent first on odd rounds and the change first on even
# ones. For every per-layer timing (unit `s`) it prints the fastest run of
# each side and b/a (a = parent, b = change). A traced run's counts are
# deterministic for its seed, so every `count` and `bytes` row and the
# `sam_fnv64` note must read the same in every run of both sides: the
# script lists any that differ and exits 1.
#
# Everything lands in .bench_build/layers/ (git-ignored). A traced
# `unique100` run takes about 7 s on two vCPUs, builds excluded.
set -euo pipefail

parent_rev=${1:?usage: scripts/hostperf_layers.sh <parent-rev> <workload> [runs]}
workload=${2:?usage: scripts/hostperf_layers.sh <parent-rev> <workload> [runs]}
runs=${3:-3}
root=$(git rev-parse --show-toplevel)
out="$root/.bench_build/layers"
parent="$out/parent"

rm -rf "$parent" "$out"/[ab].*.txt "$out"/[ab].*.json
mkdir -p "$parent"
git -C "$root" archive "$parent_rev" | tar -x -C "$parent"
cargo build --release --offline --quiet --manifest-path "$parent/benchmark/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
a_bin="$parent/benchmark/target/release/repute-hostperf"
b_bin="$root/benchmark/target/release/repute-hostperf"

traced() { # <binary> <side> <round>
    "$1" run --workload "$workload" --trace 1 --out "$out/$2.$3.json" >"$out/$2.$3.txt"
}
for round in $(seq 1 "$runs"); do
    if [ $((round % 2)) -eq 1 ]; then
        traced "$a_bin" a "$round"
        traced "$b_bin" b "$round"
    else
        traced "$b_bin" b "$round"
        traced "$a_bin" a "$round"
    fi
done

# A run prints one `<workload>  <metric>  <value>  <unit>` row a metric;
# the side is the first letter of the file name.
awk -v workload="$workload" '
    $1 != workload || NF != 4 { next }
    {
        file = FILENAME
        sub(/^.*\//, "", file)
        side = substr(file, 1, 1)
        metric = $2; value = $3; unit = $4
        if (!(metric in order)) { order[metric] = ++metrics; names[metrics] = metric }
        if (unit == "s") {
            key = side SUBSEP metric
            if (!(key in fastest) || value + 0 < fastest[key]) fastest[key] = value + 0
            timed[metric] = 1
        } else if (unit == "count" || unit == "bytes" || metric == "sam_fnv64") {
            if (!(metric in first)) first[metric] = value
            else if (value != first[metric]) differs[metric] = 1
            checked[metric] = 1
        }
    }
    END {
        printf "%-26s %14s %14s %8s\n", "layer (fastest, s)", "a", "b", "b/a"
        for (i = 1; i <= metrics; i++) {
            metric = names[i]
            if (!(metric in timed)) continue
            a = fastest["a", metric]; b = fastest["b", metric]
            ratio = a > 0 ? sprintf("%.3f", b / a) : "-"
            printf "%-26s %14.6f %14.6f %8s\n", metric, a, b, ratio
        }
        status = 0
        for (i = 1; i <= metrics; i++) {
            metric = names[i]
            if (metric in differs) { printf "DIFFERS: %s\n", metric; status = 1 }
        }
        if (!status) { n = 0; for (m in checked) n++; printf "every count, bytes row and sam_fnv64 equal (%d rows)\n", n }
        exit status
    }
' "$out"/a.*.txt "$out"/b.*.txt | tee "$out/layers.txt"
