"""Run one pairnet benchmark workload closed-loop and print its metrics.

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; pairnet is imported from its
``src/`` directory. One caller runs passes back to back (closed loop,
no concurrency) for ``--seconds`` after an untimed warm-up pass, checks
every output, and prints as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` untraced and
traced passes alternate and the metrics are the per-layer ones, plus
``trace.overhead_s``. The line before it is the environment record.
Details (per-pass values, failures, spans) go to ``.perfbench_runs/``.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402 - the clock above starts the set-up time
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("paper_grid", "fine_cells", "dense_cells")
SETUP_REPEATS = 3  # input generation is repeated and its median reported
MIN_PASSES = 3
MIN_TRACED_RUN_PASSES = 4  # two untraced and two traced, alternating


def _import_pairnet():
    """Import pairnet from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "pairnet", "__init__.py")):
        sys.exit(f"error: no pairnet sources under {SRC}; run from a pairnet checkout")
    sys.path.insert(0, SRC)
    import pairnet

    if not os.path.abspath(pairnet.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported pairnet from {pairnet.__file__}, not from {SRC}")
    return pairnet


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest():
    """sha256 over src/pairnet/*.py, naming the code when no commit is known."""
    digest = hashlib.sha256()
    package = os.path.join(SRC, "pairnet")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(package, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _blas_threads():
    """Thread count of every OpenBLAS this process has loaded."""
    import ctypes

    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return found
    for lib in sorted(libs):
        if not lib.endswith(".so") and ".so." not in lib:
            continue
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                found[os.path.basename(lib)] = fn()
                break
    return found


def environment(args, workload, pairnet):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_version = "unknown"
    env_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "PAIRNET_THREADS")
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "pairnet_version": getattr(pairnet, "__version__", "unknown"),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas_version,
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in env_vars},
        "machine": platform.machine(), "sizes": workload.sizes(),
    }


def _median(values):
    return statistics.median(values) if values else float("nan")


def _gmean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else float("nan")


def kind_seconds(passes, kind):
    """Time of a pass's operations of one kind: each operation's median
    over the passes, summed, so a stall in one pass moves one sample."""
    columns = zip(*[[s for k, _, s in p.ops if k == kind] for p in passes])
    return sum(statistics.median(column) for column in columns)


def end_to_end(passes, setup_s):
    """End-to-end metrics over the timed passes, each a median."""
    ps = [p for p, _ in passes]
    first = ps[0]

    def rate(kind):
        rows = sum(r for k, r, _ in first.ops if k == kind)
        seconds = kind_seconds(ps, kind)
        return rows / seconds if seconds else float("nan")

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "pass_s": (_median([s for _, s in passes]), "s"),
        "fit_rows_per_s": (rate("fit"), "rows/s"),
        "predict_rows_per_s": (rate("predict"), "rows/s"),
        "select_s": (kind_seconds(ps, "select"), "s"),
        "sweep_s": (kind_seconds(ps, "sweep"), "s"),
        "model_io_s": (kind_seconds(ps, "io"), "s"),
        "select_test_mse_gmean": (_gmean(first.select_mse), "mse"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }


def run(args, workload, tracer, import_s):
    import tracing
    import workloads

    ledger = workloads.Ledger()

    def guarded(fn, *args):
        """Run a pass or its checks; a failure is counted, not raised."""
        try:
            fn(*args)
            return True
        except workloads.OpFailed:  # already counted against its operation
            return False
        except Exception:  # noqa: BLE001 - the run goes on and reports it
            ledger.check(ledger.new_op(), False, traceback.format_exc())
            return False

    def one_pass(traced=False):
        p = workloads.Pass(ledger)
        root = None
        if traced:
            tracer.install()
            root = tracer.begin_pass()
        start = time.perf_counter()
        try:
            ok = guarded(workload.run_pass, p)
        finally:
            seconds = time.perf_counter() - start
            if traced:
                tracer.end_pass(root)
                tracer.uninstall()
        return p, seconds, ok, root

    inputs_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.make_inputs()
        inputs_s.append(time.perf_counter() - start)
    warm, warm_s, warm_ok, _ = one_pass()
    setup_s = import_s + statistics.median(inputs_s) + warm_s

    workload.prepare_reference()
    if warm_ok:
        guarded(workload.verify, warm, True)
        warm.results.clear()

    timed, traced_roots = [], []
    untraced_s, traced_s = [], []
    started = time.perf_counter()
    needed = MIN_TRACED_RUN_PASSES if args.trace else MIN_PASSES
    while len(timed) < needed or (
            time.perf_counter() - started + timed[-1][1] <= args.seconds):
        traced = bool(args.trace) and len(timed) % 2 == 1
        p, seconds, ok, root = one_pass(traced)
        if ok:
            ok = guarded(workload.verify, p, False)
            p.results.clear()
            for name, (op, value) in p.outputs.items():
                if name in warm.outputs:
                    ledger.check(op, _same(value, warm.outputs[name][1]),
                                 f"{name} differs from the first pass")
        timed.append((p, seconds, ok))
        (traced_s if traced else untraced_s).append(seconds)
        if traced:
            traced_roots.append(root)

    good = [(p, s) for p, s, ok in timed if ok] or [(p, s) for p, s, _ in timed]
    details = {"setup": {"import_s": import_s, "inputs_s": inputs_s,
                         "warmup_pass_s": warm_s},
               "passes": [{"traced": bool(args.trace) and i % 2 == 1, "pass_s": s, "ok": ok,
                           "ops": p.ops}
                          for i, (p, s, ok) in enumerate(timed)],
               "select_test_mse": warm.select_mse}
    if args.trace:
        per_pass = [tracing.pass_metrics(tracer.spans, r, tracer.installed)
                    for r in traced_roots]
        metrics = tracing.median_metrics(per_pass)
        metrics["trace.overhead_s"] = (_median(traced_s) - _median(untraced_s), "s")
        details["untraced_names"] = tracer.missing
    else:
        metrics = end_to_end(good, setup_s)
    return ledger, metrics, details


def _same(a, b):
    """Equal, with floats compared bitwise (so NaN == NaN and -0.0 != 0.0)."""
    if isinstance(a, float) and isinstance(b, float):
        return a.hex() == b.hex()
    return a == b


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pairnet = _import_pairnet()
    import tracing
    import workloads

    import_s = time.perf_counter() - _STARTED

    out_dir = os.path.join(ROOT, ".perfbench_runs")
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(out_dir, f"{stem}-{os.getpid()}")
    os.makedirs(workdir)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    tracer = tracing.Tracer()
    try:
        ledger, metrics, details = run(args, workload, tracer, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args, workload, pairnet)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if math.isfinite(value)},
    }
    record = {"env": env, "error_rate": ledger.failed / ledger.attempted,
              "failures": ledger.messages, "details": details, "result": result}
    with open(os.path.join(out_dir, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.dump(os.path.join(out_dir, stem + ".spans.json"))
    for message in ledger.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"env": env, "error_rate": record["error_rate"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
