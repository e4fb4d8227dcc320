#!/usr/bin/env bash
# bench_fingerprint.sh — sha256 fingerprints of the deterministic bench
# documents: bench_scaling JSON under seven flag sets, the bench_serve
# SloReport JSON (clean and seeded chaos), the bench_scaling --sanitize
# report, the stdout of a two-node seeded-fault bench_scaling --dsan run,
# and the stdout of the single-device benches at L=8
# (bench_fig6 clean and under seeded faults, bench_quda_recon,
# bench_precision, bench_compressed_3lp, bench_wilson, bench_roofline,
# bench_arch_sweep, bench_mixed_solver).  bench_arch_sweep is the one
# document whose machines include an L2 with a set count that is not a power
# of two (2 560 sets) and a 216-SM device, and bench_mixed_solver pairs the
# float 3LP-1 kernel's profiled time with the real iteration counts of a
# double and a mixed-precision CG.  The --dsan run's per-checker counts
# include one schedule event per port grant of every exchange, the part of
# the interconnect model no other document shows.
# Every one of them depends only on its seeds, so two runs of one build must
# print identical lines (ARCHITECTURE.md invariant 3), and a refactor that
# claims "same behaviour" must print the lines of its parent.  A profiled
# launch runs on one worker thread per CPU of the process's affinity mask,
# less one, so `taskset -c 0 tools/bench_fingerprint.sh <build-dir>` computes
# every document with one worker and must print the lines of an unpinned run.
#
# Usage: tools/bench_fingerprint.sh <build-dir>
# Prints 20 "<sha256>  <document>" lines, one per document; exits non-zero
# when a bench fails.  Takes a few minutes (the two bench_serve runs
# dominate).
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <build-dir>" >&2
  exit 2
fi
bench_dir="$(cd "$1" && pwd)/bench"
for exe in bench_scaling bench_serve bench_fig6 bench_quda_recon bench_precision \
           bench_compressed_3lp bench_wilson bench_roofline bench_arch_sweep \
           bench_mixed_solver; do
  if [[ ! -x "$bench_dir/$exe" ]]; then
    echo "$0: $bench_dir/$exe not built" >&2
    exit 2
  fi
done

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

scaling() {
  local name="$1"
  shift
  "$bench_dir/bench_scaling" --L 12 --max-devices 4 "$@" --json "$out/$name.json" >/dev/null
}

scaling scaling-default
scaling scaling-nodes2 --nodes 2
scaling scaling-faults --faults 2024
scaling scaling-nodes2-faults --nodes 2 --faults 2024
scaling scaling-elastic --faults 2024 --spares 1 --nodes 2
scaling scaling-wire-fp32r12 --nodes 2 --wire fp32+r12
scaling scaling-wire-fp16r9 --nodes 2 --wire fp16+r9
"$bench_dir/bench_serve" --json "$out/serve.json" >/dev/null
"$bench_dir/bench_serve" --chaos 20260807 --json "$out/serve-chaos.json" >/dev/null
"$bench_dir/bench_scaling" --sanitize --L 12 --max-devices 4 >"$out/scaling-sanitize.txt"
"$bench_dir/bench_scaling" --dsan --L 12 --max-devices 4 --faults 2024 --nodes 2 \
  >"$out/scaling-dsan.txt"
"$bench_dir/bench_fig6" --L 8 >"$out/fig6.txt"
"$bench_dir/bench_fig6" --faults 2024 --L 8 >"$out/fig6-faults.txt"
"$bench_dir/bench_quda_recon" --L 8 >"$out/quda-recon.txt"
"$bench_dir/bench_precision" --L 8 >"$out/precision.txt"
"$bench_dir/bench_compressed_3lp" --L 8 >"$out/compressed-3lp.txt"
"$bench_dir/bench_wilson" --L 8 >"$out/wilson.txt"
"$bench_dir/bench_roofline" --L 8 >"$out/roofline.txt"
"$bench_dir/bench_arch_sweep" --L 8 >"$out/arch-sweep.txt"
"$bench_dir/bench_mixed_solver" --L 8 >"$out/mixed-solver.txt"

cd "$out"
sha256sum -- *.json *.txt
