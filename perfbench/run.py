"""Benchmark of the dualtoken package: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload {infer224,train224,train_toy,verify} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; the package is imported from the `src/` directory next to
this one. One process, one closed-loop caller, one BLAS thread.

--trace 0 measures the end-to-end metrics with no tracing installed.
--trace 1 measures the per-layer metrics: a quarter of the time untraced,
then the tracer of `tracing.py` is installed, the workload is set up again
under it, and the rest of the time is traced. The ratio of the two phases'
median unit latencies is the tracing overhead.

Times are scaled to a reference machine speed: each unit, and the set-up, is
bracketed by a fixed speed probe (see `speed_probe`). Raw times are kept in
the report file.

Every unit's output is checked against the stored references; a unit whose
output deviates is counted as failed and yields no timing. The last line of
standard output is one JSON object with the keys `correct`, `attempted`,
`failed` and `metrics`; the line before it holds the run facts. The full
report (and, when tracing, the spans) is written under `.perfbench/`.
"""

import os
import sys
import time

_T_START = time.perf_counter()

# One BLAS thread, fixed before numpy loads: with two threads on a two-core
# machine the toy step's median varied by a third from process to process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 4          # extra set-ups in child processes, for a median of 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("infer224", "train224", "train_toy", "verify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set the workload up and print the set-up time")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def _log(*args):
    print(*args, file=sys.stderr, flush=True)


def import_package():
    """Import the package from the checkout; None when it is not there."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    try:
        import dualtoken  # noqa: F401
        import workloads
    except ImportError as exc:
        _log(f"cannot import the dualtoken package from {ROOT}/src: {exc}")
        return None
    return workloads


# ---------------------------------------------------------------------------
# run facts
# ---------------------------------------------------------------------------

def _blas_facts():
    import ctypes
    import glob
    import numpy as np
    facts = {"threads_env": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for lib in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                facts["threads"] = fn()
                break
    return facts


def _git_commit():
    """HEAD of the checkout; a checkout that is not a repository has none.
    The ceiling keeps git from finding a repository around the checkout."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def run_facts(args, variant):
    import platform
    import numpy as np
    import scipy
    from dualtoken import kernels
    return {
        "workload": args.workload, "seed": args.seed, "input_variant": variant,
        "trace": args.trace, "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas": _blas_facts(), "numpy": np.__version__, "scipy": scipy.__version__,
        "python": platform.python_version(), "use_numba": kernels.use_numba(),
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# measuring
# ---------------------------------------------------------------------------

# The host's speed drifts: a toy step takes 51 ms in one minute and 95 ms in
# the next, with thread CPU time tracking wall time, so the machine itself
# runs slower, and longer runs do not average it out. Every unit, and the
# set-up, is therefore bracketed by a fixed probe, and its time is scaled to
# the speed at which the probe takes PROBE_REF_S (about its median next to
# the units on a 2-vCPU Xeon host). Raw times are kept in the report file.
PROBE_REF_S = 0.8e-3
_PROBE_A = None


def speed_probe():
    """Seconds taken by fixed work: 150 small numpy ops, which are bound by
    the interpreter like the toy step, and three 128x128 matmuls. It runs
    next to the units on purpose: refilling the caches a unit evicted makes
    it slow down with the memory contention that slows large-array units."""
    global _PROBE_A
    import numpy as np
    if _PROBE_A is None:
        _PROBE_A = np.random.default_rng(0).standard_normal((128, 128)).astype(np.float32)
    t0 = time.perf_counter()
    x = np.ones(64, dtype=np.float32)
    for _ in range(150):
        x = np.tanh(x * 1.0001 + 1e-4)
    y = _PROBE_A
    for _ in range(3):
        y = np.tanh(y @ _PROBE_A * 0.01)
    return time.perf_counter() - t0


class Phase:
    """One closed-loop measurement of the units whose output matched its
    reference: speed-scaled latencies, raw latencies, scale factors, images
    and the speed-scaled time spent on them; plus attempt/failure counts."""

    def __init__(self):
        self.latencies = []
        self.raw = []
        self.factors = []
        self.images = 0
        self.image_seconds = 0.0
        self.attempted = 0
        self.failed = 0


def measure(wl, seconds, tracer=None):
    phase = Phase()
    unit_span = tracer.intern("bench.unit") if tracer is not None else None
    now = time.perf_counter
    inner = []  # probes taken inside a unit, whose time the unit does not count
    wl.mark = lambda: inner.append(speed_probe())
    deadline = now() + seconds
    i = 0
    while phase.attempted == 0 or now() < deadline:
        wl.before_unit(i)
        phase.attempted += 1
        try:
            inner.clear()
            before = speed_probe()
            if tracer is None:
                t0 = now()
                out = wl.run_unit(i)
                dt = now() - t0
            else:
                depth = len(tracer.stack)
                t0 = now()
                tracer.push(unit_span)
                try:
                    out = wl.run_unit(i)
                finally:
                    tracer.unwind(depth)
                dt = now() - t0
            dt -= sum(inner)
            probes = [before, speed_probe()] + inner
            factor = PROBE_REF_S * len(probes) / sum(probes)
            ok = wl.check(i, out)
        except Exception as exc:  # a failing unit is counted, not fatal
            _log(f"unit {i} raised {type(exc).__name__}: {exc}")
            ok = False
        if ok:
            phase.latencies.append(dt * factor)
            phase.raw.append(dt)
            phase.factors.append(factor)
            phase.images += wl.images_per_unit
            phase.image_seconds += wl.image_seconds(out, dt) * factor
        else:
            phase.failed += 1
            _log(f"unit {i}: output does not match the reference")
        i += 1
    return phase


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def setup_probe_times(args):
    """Set the workload up in fresh child processes; each reports its own
    set-up time, from interpreter start of the script to the end of set-up."""
    times = []
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-probe"]
    for _ in range(SETUP_PROBES):
        res = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
        if res.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {res.stderr.strip()[-500:]}")
        times.append(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def end_to_end(args, wl):
    phase = measure(wl, args.seconds)
    lat = phase.latencies
    metrics = {}
    if lat:
        metrics = {
            "latency_ms_p50": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
            "latency_ms_p90": {"value": 1e3 * _quantile(lat, 90), "unit": "ms"},
            "images_per_s": {"value": phase.images / phase.image_seconds, "unit": "1/s"},
        }
    metrics["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"}
    samples = {"units": len(lat), "latencies_s": lat, "raw_latencies_s": phase.raw,
               "speed_factors": phase.factors}
    return phase, metrics, samples


def main(argv=None):
    args = parse_args(argv)
    workloads = import_package()
    if workloads is None:
        return 2
    refs = None if args.setup_probe else workloads.load_references()
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        return _run(args, workloads, refs, scratch)
    finally:
        for name in os.listdir(scratch):
            os.remove(os.path.join(scratch, name))
        os.rmdir(scratch)


def _run(args, workloads, refs, scratch):
    speed_probe()  # the first call pays one-off costs
    before = speed_probe()
    wl = workloads.WORKLOADS[args.workload](args.seed, refs, scratch)
    wl.setup()
    own_setup_s = time.perf_counter() - _T_START
    own_setup_s *= 2.0 * PROBE_REF_S / (before + speed_probe())
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup_s}))
        return 0

    facts = run_facts(args, wl.variant)
    if args.trace:
        import trace_report
        untraced = measure(wl, args.seconds * trace_report.UNTRACED_SHARE)
        del wl
        phases, metrics, samples = trace_report.traced_run(
            args, lambda: workloads.WORKLOADS[args.workload](args.seed, refs, scratch),
            untraced, measure)
    else:
        phase, metrics, samples = end_to_end(args, wl)
        del wl
        setups = [own_setup_s] + setup_probe_times(args)
        samples["setup_s"] = setups
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
        phases = [phase]

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    report = {"facts": facts, "fail_ratio": failed / attempted, "samples": samples,
              **result}
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(OUT_DIR, f"report-{tag}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    _log(f"{args.workload}: {attempted} units, {failed} failed "
         f"(fail_ratio {failed / attempted:.3g})")
    for name, m in metrics.items():
        _log(f"  {name:<42} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
