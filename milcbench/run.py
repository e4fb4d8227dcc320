#!/usr/bin/env python3
"""milcbench entry point: build, self-test, run one workload, print the result.

    python3 milcbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run builds the library and the
benchmark from source into .bench_build/milcbench (CMake, Release); later
runs only re-check the build.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end metrics
of BENCHMARK.json with --trace 0, its per-layer metrics with --trace 1.  The
line before it is a JSON object with the workload, the seed and the digest
of every simulated statistic.
Exit status is 0 only when the build, the self-test and every output check
passed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "milcbench")
WORKLOADS = ("fig6-sweep", "sharded-solve", "serve-storm")
TRACE = "trace.host_s trace.overhead_frac trace.spans"
# The per-layer metrics each workload measures, because it calls those
# layers.  A traced run must report every one of them; the per-layer
# metrics of layers a workload never calls are reported as 0.
CALLS = {
    "fig6-sweep": f"""{TRACE} lattice.build_s self.lattice.build_s
        core.best_gflops.1LP core.best_gflops.2LP core.best_gflops.3LP-1 core.best_gflops.3LP-2
        core.best_gflops.3LP-3 core.best_gflops.4LP-1 core.best_gflops.4LP-2 core.launches
        core.profiled_dslash_s self.core.profiled_dslash_s core.functional_dslash_s
        self.core.functional_dslash_s core.reference_dslash_s self.core.reference_dslash_s
        gpusim.sim_overhead_x gpusim.kernel_us gpusim.occupancy gpusim.bound_by
        gpusim.dram_sectors gpusim.l1_tag_requests gpusim.shared_wavefronts gpusim.flops
        gpusim.dram_bytes gpusim.t_dram_us gpusim.t_latency_us gpusim.t_l1_us gpusim.t_shared_us
        gpusim.t_issue_us gpusim.t_atomic_us gpusim.t_barrier_us qudaref.gflops_recon18
        qudaref.run_s self.qudaref.run_s qudaref.functional_s self.qudaref.functional_s
        fidelity.3lp1_over_1lp_x fidelity.3lp1_vs_quda_pct fidelity.lattice_L""".split(),
    "sharded-solve": f"""{TRACE} lattice.build_s self.lattice.build_s gpusim.sim_overhead_x
        solve_sim_us multidev.price_s self.multidev.price_s multidev.apply_s self.multidev.apply_s
        multidev.per_iter_us multidev.pack_us multidev.unpack_us multidev.exposed_us
        multidev.overlap_efficiency multidev.comm_fraction multidev.surface_fraction
        multidev.halo_bytes multidev.intra_node_bytes multidev.inter_node_bytes
        multidev.fabric_messages multidev.inter_wire_us cg.ctor_s self.cg.ctor_s cg.solve_s
        self.cg.solve_s cg.self_s cg.apply_reference_s self.cg.apply_reference_s cg.iterations
        cg.applies cg.checkpoint_applies cg.hidden_applies cg.recomputes cg.restarts
        cg.true_residual""".split(),
    "serve-storm": f"""{TRACE} serve.pricing_s self.serve.pricing_s serve.run_s self.serve.run_s
        serve.placements_priced serve.grids_scored serve.latency_p50_us serve.latency_tail_us
        serve.latency_tail_pct serve.latency_samples serve.queue_wait_p50_us
        serve.queue_wait_tail_us serve.service_p50_us serve.rejected serve.shed serve.cancelled
        serve.deadline_missed serve.breaker_trips serve.degradations faultsim.faults_observed
        cg.restarts multidev.failovers multidev.spares_consumed multidev.rejoins
        multidev.rereplicated_bytes""".split(),
}
BUILD_TIMEOUT_S = 600
RUN_MARGIN_S = 120


def fail(msg, code=2):
    print(f"milcbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Run a build step; its output goes to stderr only when it fails.  The
    compiler's temporary files stay inside the build directory."""
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=timeout, env=dict(os.environ, TMPDIR=tmp))
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-8000:])
        fail(f"build step failed: {' '.join(cmd)}")


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no library sources (src/) next to the benchmark; nothing to build")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release", *gen],
                  BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD, "-j", "4"], BUILD_TIMEOUT_S)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = load_spec()
    build()
    selftest = subprocess.run([os.path.join(BUILD, "milcbench_selftest")], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                              timeout=120)
    print(selftest.stdout, end="")
    if selftest.returncode != 0:
        fail("self-test failed", 1)

    trace_out = os.path.join(BUILD, "traces", f"{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(trace_out), exist_ok=True)
    cmd = [os.path.join(BUILD, "milcbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--trace-out", trace_out]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=2 * args.seconds + RUN_MARGIN_S)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith("MILCBENCH_RESULT "):
            result = json.loads(line[len("MILCBENCH_RESULT "):])
        else:
            print(line)
    if result is None:
        fail(f"workload exited with status {proc.returncode} and no result", 1)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    must = set(CALLS[args.workload]) if args.trace else {m["name"] for m in wanted}
    unknown = must - {m["name"] for m in wanted}
    if unknown:
        fail(f"metrics {sorted(unknown)} are not in BENCHMARK.json", 1)
    measured = result["metrics"]
    metrics = {}
    for m in wanted:
        got = measured.get(m["name"])
        if got is None:
            if m["name"] in must:
                fail(f"metric {m['name']} was not measured", 1)
            # A layer this workload never calls: it did no work there.
            got = {"value": 0.0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            fail(f"metric {m['name']}: unit {got['unit']} != {m['unit']}", 1)
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    # The result line holds exactly the keys of the benchmark contract, so the
    # digest of the simulated statistics gets a JSON line of its own: runs of
    # one seed must print the same digest.
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "digest": result["digest"]}))
    print(json.dumps({"correct": bool(result["correct"]) and proc.returncode == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    sys.exit(0 if proc.returncode == 0 and result["correct"] else 1)


if __name__ == "__main__":
    main()
