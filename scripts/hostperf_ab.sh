#!/usr/bin/env bash
# A/B of the host-clock benchmark: the working tree against a parent
# revision, the way EXPERIMENTS.md's "Host clock" sections measure a claim.
#
#   scripts/hostperf_ab.sh <parent-rev> [workload]
#
# The parent is unpacked with `git archive` (no worktree, nothing checked
# out) into .bench_build/ab/parent and built in its own target directory;
# the change is built where it stands. Then, for seeds 1..10, one
# `sweep --seeds 1 --first-seed k --seconds 20` per side, the parent first
# on odd seeds and the change first on even ones, so a slow minute of a
# shared machine falls on both sides alike; the ten files of a side are
# merged and `compare a.json b.json` prints medians, b/a, spreads and
# verdicts (a = parent, b = change). A second table lists, per workload
# and end-to-end metric, the seeds on which the change read better.
#
# Everything lands in .bench_build/ab/ (git-ignored). 35 minutes for all
# four workloads on two vCPUs, builds included (measured: 2 117 s and
# 1 996 s); name one workload to run only that (8 minutes).
set -euo pipefail

parent_rev=${1:?usage: scripts/hostperf_ab.sh <parent-rev> [workload]}
workload=${2:-}
root=$(git rev-parse --show-toplevel)
out="$root/.bench_build/ab"
parent="$out/parent"

rm -rf "$parent"
mkdir -p "$parent"
git -C "$root" archive "$parent_rev" | tar -x -C "$parent"
cargo build --release --offline --quiet --manifest-path "$parent/benchmark/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml"
a_bin="$parent/benchmark/target/release/repute-hostperf"
b_bin="$root/benchmark/target/release/repute-hostperf"

sweep() { # <binary> <out-file> <seed>
    "$1" sweep --out "$2" --seeds 1 --first-seed "$3" --seconds 20 \
        ${workload:+--workload "$workload"}
}
for seed in $(seq 1 10); do
    if [ $((seed % 2)) -eq 1 ]; then
        sweep "$a_bin" "$out/a.$seed.json" "$seed"
        sweep "$b_bin" "$out/b.$seed.json" "$seed"
    else
        sweep "$b_bin" "$out/b.$seed.json" "$seed"
        sweep "$a_bin" "$out/a.$seed.json" "$seed"
    fi
done

# A sweep file is `{"runs":[`, one run per line, `]}`: merging is
# concatenating the run lines.
merge() { # <side>
    {
        echo '{"runs":['
        for seed in $(seq 1 10); do
            sed -e '1d' -e '$d' -e 's/,$//' "$out/$1.$seed.json"
        done | sed -e '$!s/$/,/'
        echo ']}'
    } >"$out/$1.json"
}
merge a
merge b
# `compare` fails when a metric is worse than its bound; say so last.
status=0
"$b_bin" compare "$out/a.json" "$out/b.json" | tee "$out/compare.txt" || status=$?

# Seeds won: the change better than the parent on the same seed.
echo
echo "seeds on which b read better than a:"
awk '
    function text(key,   s) {
        match($0, "\"" key "\":\"[^\"]*\""); s = substr($0, RSTART, RLENGTH)
        gsub(/^.*:"|"$/, "", s); return s
    }
    function number(key,   s) {
        match($0, "\"" key "\":(\\{\"value\":)?[0-9.eE+-]+"); s = substr($0, RSTART, RLENGTH)
        sub(/^.*:/, "", s); return s + 0
    }
    BEGIN { split("reads_per_s job_p50_ms setup_s peak_rss_mb", metrics, " ") }
    !/"workload"/ { next }
    {
        run = text("workload") SUBSEP number("seed")
        for (m = 1; m <= 4; m++) {
            metric = metrics[m]
            if (FNR == NR) { a[run, metric] = number(metric); continue }
            key = sprintf("  %-20s %-12s", text("workload"), metric)
            better = metric == "reads_per_s" ? number(metric) > a[run, metric] : number(metric) < a[run, metric]
            wins[key] += better; runs[key]++
        }
    }
    END { for (key in wins) printf "%s %d/%d\n", key, wins[key], runs[key] }
' "$out/a.json" "$out/b.json" | sort | tee "$out/wins.txt"
exit "$status"
