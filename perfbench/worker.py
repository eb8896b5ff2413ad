"""Run one workload in this process and write its result as JSON.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --result PATH --out-dir DIR

run.py starts this in a child process, so the child's peak RSS belongs to
the workload alone.  Set-up is repeated SETUP_REPS times and the import
IMPORT_REPS times, and the sum of their medians is reported.  With
--trace 1 the same ops run twice, untraced and then traced, and the results
must be bit-identical.
"""

import argparse
import ctypes
import gc
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

SETUP_REPS = 3
IMPORT_REPS = 3
IMPORT_CODE = ("import time; t0 = time.perf_counter(); import numpy, friedrichs; "
               "print(time.perf_counter() - t0)")


def _environment(root, seed):
    import numpy as np
    import scipy
    import workloads

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True).stdout.strip()
        except OSError:
            git = "unknown (no git)"
    return {
        "nproc": workloads.nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version", "")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "seed": seed,
        "git_commit": git,
    }


def tail(times):
    """(percentile, value): the highest whole percentile with at least ten
    samples beyond it, never below the median."""
    import numpy as np

    q = max(50, int(100.0 * (1.0 - 10.0 / len(times))))
    return q, float(np.percentile(times, q))


def child_import_s():
    """Import time of numpy and friedrichs in a fresh interpreter: a
    process imports a module once, so repeated timings need new ones."""
    out = subprocess.run([sys.executable, "-c", IMPORT_CODE], check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout)


def _fingerprint(wl, res):
    fp = wl.fingerprint(res)
    return hashlib.sha256(fp if isinstance(fp, bytes)
                          else repr(fp).encode()).hexdigest()


def heap_trimmer():
    """glibc's malloc_trim, or a no-op where it is missing."""
    try:
        trim = ctypes.CDLL("libc.so.6").malloc_trim
    except (OSError, AttributeError):
        return lambda: None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return lambda: trim(0)


def rss_mb():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2 ** 20


def release_op_memory(trim):
    """Free what the last op left behind; return the MB that only the
    cyclic garbage collector could free.

    Root finding leaves reference cycles (scipy's brentq wraps the
    objective in a closure that refers to itself) that keep the op's
    evaluator or lattice arrays alive until a full collection, whose timing
    depends on allocation counts.  Collecting after every op makes peak RSS
    the working set of one op instead of a random number of ops; the
    memory that waited for the collector is reported, not hidden.
    """
    trim()
    before = rss_mb()
    gc.collect()
    trim()
    return max(before - rss_mb(), 0.0)


def run_ops(wl, state, ops, seconds=None, count=None, tracer=None, **op_kw):
    """Closed loop: the next op starts when the previous one is checked.
    Runs `count` ops, or whole rounds of the workload's input mix until
    `seconds` have passed (at least min_ops)."""
    from friedrichs import FriedrichsError

    trim = heap_trimmer()
    release_op_memory(trim)
    records = []
    deadline = time.perf_counter() + (seconds or 0.0)
    while len(records) < len(ops):
        i = len(records)
        if count is not None and i >= count:
            break
        if (count is None and i >= wl.min_ops and i % wl.round_ops == 0
                and time.perf_counter() >= deadline):
            break
        if tracer is not None:
            tracer.op, tracer.recording = i, True
        t0 = time.perf_counter()
        try:
            res, error = wl.op(state, ops[i], **op_kw), None
        except FriedrichsError as exc:
            res, error = None, ("typed", "%s: %s" % (type(exc).__name__, exc))
        except Exception:
            res, error = None, ("crash", traceback.format_exc())
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.recording = False
        if error is None:
            grade = wl.check(state, ops[i], res)
            fp = _fingerprint(wl, res)
            res = None  # this op's memory is gone before the next one starts
        else:
            answers = getattr(wl, "answers_per_op", 1)
            grade = {"answers": answers, "failed": answers,
                     "problems": [error[1]] if error[0] == "crash" else [],
                     "error": error[1]}
            fp = None
        records.append({"time": elapsed, "grade": grade, "fingerprint": fp,
                        "cycle_mb": release_op_memory(trim)})
    return records


def _summary(records):
    attempted = sum(r["grade"]["answers"] for r in records)
    failed = sum(r["grade"]["failed"] for r in records)
    problems = [p for r in records for p in r["grade"]["problems"]]
    shortfalls = [s for r in records for s in r["grade"].get("shortfalls", ())]
    return attempted, failed, problems, shortfalls


def _max_grade(records, key):
    return max((r["grade"][key] for r in records if key in r["grade"]),
               default=0.0)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    t0 = time.perf_counter()
    import numpy  # noqa: F401  (part of the import cost users pay)
    import friedrichs  # noqa: F401
    import tracing
    import workloads
    import_times = [time.perf_counter() - t0]
    import_times += [child_import_s() for _ in range(IMPORT_REPS - 1)]

    if args.workload == "zone_sweep":
        wl = workloads.ZoneSweep(root, args.out_dir)
    else:
        wl = {"fresh_fibers": workloads.FreshFibers,
              "warm_couplings": workloads.WarmCouplings,
              "lattice_oracle": workloads.LatticeOracle}[args.workload]()
    inputs = wl.inputs(args.seed)
    ops = inputs["ops"]

    tracer = tracing.Tracer() if args.trace else None
    setup_times = []
    for _ in range(SETUP_REPS):
        state = None  # the previous set-up's memory is not part of this one
        gc.collect()
        t0 = time.perf_counter()
        if tracer is not None:
            # instrumented but not recording: the tracer learns which
            # quadrature levels set-up built
            tracer.recording = False
            with tracing.instrument(tracer):
                state = wl.setup(inputs)
        else:
            state = wl.setup(inputs)
        setup_times.append(time.perf_counter() - t0)

    info = {"environment": _environment(root, args.seed),
            "setup_reps_s": setup_times, "import_reps_s": import_times}
    metrics = {}
    if not args.trace:
        records = run_ops(wl, state, ops, seconds=args.seconds)
        times = [r["time"] for r in records]
        q, tail_value = tail(times)
        metrics = {
            "setup_s": (statistics.median(import_times)
                        + statistics.median(setup_times)),
            "ops_per_s": len(times) / sum(times),
            "op_s.p50": statistics.median(times),
            "op_s.tail": tail_value,
        }
        info["tail"] = {"percentile": q, "samples": len(times)}
        info["op_times_s"] = times
        all_records = records
    elif isinstance(wl, workloads.ZoneSweep):
        # threaded untraced sweep, one-thread untraced sweep (T1), and the
        # traced one-thread sweep whose spans give the layers
        spans_path = os.path.join(args.out_dir, "spans-zone_sweep-%d.jsonl"
                                  % args.seed)
        launcher = [os.path.join(os.path.dirname(__file__), "sweep_trace.py"),
                    spans_path]
        plain = run_ops(wl, state, ops, count=1)
        one = run_ops(wl, state, ops, count=1, threads=1)
        traced = run_ops(wl, state, ops, count=1, threads=1, launcher=launcher)
        spans = tracing.load_spans(spans_path)
        metrics = tracing.layer_metrics(spans, 1)
        metrics["cli.sweep.rows"] = traced[0]["grade"].get("rows", 0)
        metrics["cli.sweep.rows_failed"] = traced[0]["grade"].get("rows_failed", 0)
        metrics["cli.sweep.parallel_efficiency"] = (
            one[0]["time"] / (wl.threads * plain[0]["time"]))
        metrics["trace.overhead_frac"] = traced[0]["time"] / one[0]["time"] - 1.0
        all_records = plain + one + traced
        metrics["memory.cycle_retained_mb"] = 0.0  # the CLI runs elsewhere
    else:
        plain = run_ops(wl, state, ops, seconds=args.seconds / 2.0)
        with tracing.instrument(tracer):
            traced = run_ops(wl, state, ops, count=len(plain), tracer=tracer)
        tracer.dump(os.path.join(args.out_dir, "spans-%s-%d.jsonl"
                                 % (args.workload, args.seed)))
        metrics = tracing.layer_metrics(tracer.spans, len(traced))
        metrics["cli.sweep.rows"] = 0
        metrics["cli.sweep.rows_failed"] = 0
        metrics["cli.sweep.parallel_efficiency"] = 0.0
        metrics["trace.overhead_frac"] = (
            statistics.median(r["time"] for r in traced)
            / statistics.median(r["time"] for r in plain) - 1.0)
        metrics["memory.cycle_retained_mb"] = statistics.mean(
            r["cycle_mb"] for r in plain)
        all_records = plain + traced
    if args.trace:
        metrics["quadrature.bessel_rel_err.max"] = _max_grade(
            traced, "bessel_rel_err")
        metrics["quadrature.err_over_estimate.max"] = _max_grade(
            traced, "err_over_estimate")
        for i, (a, b) in enumerate(zip(plain, traced)):
            if a["fingerprint"] != b["fingerprint"]:
                b["grade"]["problems"].append(
                    "traced result differs from the untraced one (op %d)" % i)

    attempted, failed, problems, shortfalls = _summary(all_records)
    if not args.trace:
        metrics["ok_frac"] = 1.0 - failed / attempted
    info["errors"] = sorted({r["grade"]["error"] for r in all_records
                             if "error" in r["grade"]})
    info["problems"] = problems[:20]
    info["shortfalls"] = shortfalls[:20]
    info["ops"] = len(all_records)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics, "info": info}
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
