#!/usr/bin/env bash
# milcbench_digests.sh — the milcbench simulated-statistics digest of every
# workload (fig6-sweep, sharded-solve, serve-storm) at seed 3.  A digest is
# an FNV-1a over every simulated statistic of a run (milcbench/README.md),
# so it depends only on the seed: a refactor that claims "same behaviour"
# must print the lines of its parent, as with bench_fingerprint.sh.
#
# Usage: tools/milcbench_digests.sh <repo-root>
# Builds milcbench from <repo-root>'s sources on first use (into its
# .bench_build/), then prints one "<digest>  <workload>@3" line per workload
# from one --seconds 1 pass; exits non-zero when a build, self-test or run
# fails.  About 40 s after the build.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <repo-root>" >&2
  exit 2
fi
root="$(cd "$1" && pwd)"
seed=3

for workload in fig6-sweep sharded-solve serve-storm; do
  out="$(cd "$root" && python3 milcbench/run.py --workload "$workload" --seed "$seed" \
           --seconds 1 --trace 0)"
  digest="$(printf '%s\n' "$out" | python3 -c '
import json, sys
for line in sys.stdin:
    if line.startswith("{") and "digest" in line:
        print(json.loads(line)["digest"])
        break
else:
    sys.exit("no digest line in the milcbench output")
')"
  echo "$digest  $workload@$seed"
done
