"""friedrichs benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The workload runs in a child
process (worker.py) with the package taken from src/ and BLAS limited to
one thread; this process adds the child's peak RSS and prints, as its last
line, {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.  Spans,
the environment record and the full result are kept in .perfbench_out/.
"""

import argparse
import json
import os
import resource
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fresh_fibers", "warm_couplings", "lattice_oracle", "zone_sweep")
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def fail(message):
    print("perfbench: %s" % message, file=sys.stderr)
    return 2


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "friedrichs", "__init__.py")):
        return fail("no friedrichs sources under %s" % os.path.join(ROOT, "src"))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    result_path = os.path.join(out_dir, stem + ".json")
    if os.path.exists(result_path):
        os.remove(result_path)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env.update({var: "1" for var in THREAD_VARS})  # sweep workers use the CPUs
    env.pop("FRIEDRICHS_THREADS", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", result_path, "--out-dir", out_dir]
    # the worker gets its own session, so that stopping it on a timeout or
    # a SIGTERM also stops the CLI processes it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, start_new_session=True)
    try:
        proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return fail("workload %s exceeded %d s" % (args.workload, CHILD_TIMEOUT_S))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0 or not os.path.exists(result_path):
        return fail("worker exited with code %d" % proc.returncode)
    with open(result_path) as fh:
        result = json.load(fh)

    # ru_maxrss of waited-for children (kB on Linux) covers the worker and
    # the CLI processes it ran
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not args.trace:
        result["metrics"]["peak_rss_mb"] = peak_mb
    missing = [m["name"] for m in names if m["name"] not in result["metrics"]]
    if missing:
        return fail("metrics missing from the run: %s" % ", ".join(missing))
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
               for m in names}
    result["metrics"] = metrics
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    info = result["info"]
    print("environment: " + json.dumps(info["environment"], sort_keys=True))
    if "tail" in info:
        print("op_s.tail is p%(percentile)d of %(samples)d ops" % info["tail"])
    for problem in info["problems"]:
        print("check failed: " + problem.splitlines()[-1])
    for shortfall in info["shortfalls"]:
        print("error bar exceeded: " + shortfall)
    for error in info["errors"]:
        print("failed: " + error)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
