#!/usr/bin/env bash
# Alternating parent/change benchmark pairs for one workload.
#
# Usage: scripts/bench_pairs.sh PARENT_REV WORKLOAD [SEED] [PAIRS]
#
# Checks PARENT_REV out into a temporary git worktree, then runs
# `python3 -m bench --workload WORKLOAD --seed SEED --out SET.json` PAIRS
# times on it and on this working tree (uncommitted edits included),
# alternating which side goes first: the parent in odd pairs, the change
# in even ones.  Finally it prints `python3 -m bench compare` of the two
# run sets and exits with its status.  SEED defaults to 0, PAIRS to 10.
#
# The run sets (parent.json, change.json) and each run's output are left
# in a fresh directory under $TMPDIR (default /tmp), whose path is
# printed; no tracked file is written.  The worktree is removed on exit.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
    echo "usage: $0 PARENT_REV WORKLOAD [SEED] [PAIRS]" >&2
    exit 2
fi
parent_rev=$1
workload=$2
seed=${3:-0}
pairs=${4:-10}

root=$(git rev-parse --show-toplevel)
out=$(mktemp -d -t bench-pairs.XXXXXX)
worktree=$(mktemp -d -t bench-parent.XXXXXX)
cleanup() {
    git -C "$root" worktree remove --force "$worktree" 2>/dev/null || true
    rm -rf "$worktree"
    git -C "$root" worktree prune
}
trap cleanup EXIT
git -C "$root" worktree add --quiet --detach "$worktree" "$parent_rev"

# run SIDE DIR PAIR: one benchmark run of SIDE, checked out at DIR.
run() {
    echo "pair $3/$pairs: $1"
    (cd "$2" && python3 -m bench --workload "$workload" --seed "$seed" \
        --out "$out/$1.json" > "$out/$1-$3.log" 2>&1) || {
        echo "bench_pairs: $1 run failed; see $out/$1-$3.log" >&2
        exit 1
    }
}

echo "bench_pairs: $workload, seed $seed, $pairs pairs; run sets in $out"
for ((i = 1; i <= pairs; i++)); do
    if ((i % 2)); then
        run parent "$worktree" "$i"
        run change "$root" "$i"
    else
        run change "$root" "$i"
        run parent "$worktree" "$i"
    fi
done
cd "$root"
python3 -m bench compare "$out/parent.json" "$out/change.json"
