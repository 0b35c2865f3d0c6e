"""vincl benchmark: time-to-solution and time-to-certificate, end to end and
per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; vincl is imported from `src/`.
One process makes the workload's calls in a closed loop, each call after
the previous one returns, and repeats the whole call list (a pass) until
`--seconds` have elapsed.  Every output is checked.  Timings are medians
over passes.  BLAS runs one thread.

`--trace 0` reports the end-to-end metrics named in BENCHMARK.json.
`--trace 1` alternates untraced and traced passes and reports the
per-layer metrics: counts and self times of calls into each vincl module
and into numpy/scipy linear algebra, from spans recorded around those
calls (see tracing.py).  Every metric is printed as `name value unit`;
the last line of stdout is the JSON result.  Metadata, all metrics, the
raw per-pass figures and, for traced runs, the spans are written to
`.perfbench-results/` in the checkout.
"""

import os

# BLAS thread count is fixed before numpy loads; one thread is at most
# nproc and keeps runs steady on a shared machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-results")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 120

# Set-up probe: a fresh interpreter imports vincl and builds the inputs.
SETUP_PROBE = """import sys, time
t0 = time.perf_counter()
from workloads import WORKLOADS
WORKLOADS[sys.argv[1]][0](int(sys.argv[2]))
print(time.perf_counter() - t0)
"""
IMPORT_PROBE = """import time
t0 = time.perf_counter()
import vincl
print(time.perf_counter() - t0)
"""

def unit_of(name, declared):
    """The unit BENCHMARK.json declares, else one read off the name."""
    if name in declared:
        return declared[name]
    if name == "error_rate":
        return "1"
    return "s" if name.endswith("_s") else "count"


class WarningCounter:
    """Counts RuntimeWarnings and still shows each one once per location,
    as Python's default filter would."""

    def __init__(self):
        self.count = 0
        self._seen = set()
        self._guard = warnings.catch_warnings()

    def __enter__(self):
        self._guard.__enter__()
        warnings.simplefilter("always", RuntimeWarning)
        self._show = warnings.showwarning
        warnings.showwarning = self._count
        return self

    def __exit__(self, *exc):
        return self._guard.__exit__(*exc)

    def _count(self, message, category, filename, lineno, file=None,
               line=None):
        if issubclass(category, RuntimeWarning):
            self.count += 1
        key = (category, str(message), filename, lineno)
        if key not in self._seen:
            self._seen.add(key)
            self._show(message, category, filename, lineno, file, line)


def child_seconds(code, *argv):
    """Run `code` in a fresh interpreter; it prints seconds it measured."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE, env.get("PYTHONPATH", "")])
    proc = subprocess.run([sys.executable, "-c", code, *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"probe failed ({proc.returncode}): {proc.stderr}")
    return float(proc.stdout.split()[-1])


def blas_threads():
    """Thread count each loaded OpenBLAS reports, by library file name."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def cpu_model():
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.machine()


def git_sha():
    """HEAD of the checkout when it is a git work tree of its own, else None."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10,
                              check=False)
    except OSError:
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def source_sha256():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "vincl")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def metadata(workload, seed, seconds, trace):
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_requested": int(BLAS_THREADS),
            "blas_threads": blas_threads(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_sha": git_sha(),
            "source_sha256": source_sha256()}


def median(values):
    return float(statistics.median(values)) if values else 0.0


def measure(workload, seed, seconds, trace):
    """Build the inputs, then run passes until `seconds` have elapsed;
    with `trace`, every second pass is traced."""
    from tracing import Tracer
    from workloads import WORKLOADS, Pass

    build, run_pass = WORKLOADS[workload]
    tracer = Tracer() if trace else None
    passes = []
    with WarningCounter() as warned:
        if tracer:
            tracer.install()
            with tracer.root("bench.setup"):
                inputs = build(seed)
            tracer.uninstall()
        else:
            inputs = build(seed)
        deadline = time.perf_counter() + seconds
        while True:
            traced = bool(trace) and len(passes) % 2 == 1
            p = Pass(tracer if traced else None)
            lo, w0 = (tracer.mark() if tracer else 0), warned.count
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                run_pass(inputs, p)
            finally:
                wall = time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
            passes.append({"pass": p, "wall_s": wall, "traced": traced,
                           "warnings": warned.count - w0,
                           "spans": (lo, tracer.mark() if tracer else 0)})
            if (len(passes) >= (2 if trace else 1)
                    and time.perf_counter() >= deadline):
                break
    return passes, tracer


def end_to_end(passes, setup):
    plain = [x for x in passes if not x["traced"]]

    def over(fn):
        return median([fn(x["pass"]) for x in plain])

    metrics = {
        "wall_s": median([x["wall_s"] for x in plain]),
        "setup_s": median(setup),
        "time_to_solution_s": over(lambda p: p.seconds("solve", "resolve")),
        "time_to_certificate_s": over(
            lambda p: p.seconds("certify", "audit", "condition")),
        "peak_rss_mib":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cli_s": median([t for x in plain for t in x["pass"].calls["cli"]]),
        "passes": len(plain),
    }
    for cat in ("solve", "certify", "audit", "condition", "resolve"):
        metrics[f"{cat}_s"] = over(lambda p, c=cat: p.seconds(c))
    return metrics


def per_layer(passes, tracer, wall_s):
    from tracing import layer_metrics

    traced = [x for x in passes if x["traced"]]
    per_pass = [layer_metrics(tracer, *x["spans"], x["pass"].counters)
                for x in traced]
    metrics = {key: median([m[key] for m in per_pass]) for key in per_pass[0]}
    # instances are built once, before the first pass
    at_setup = layer_metrics(tracer, 0, passes[0]["spans"][0], {})
    for key in ("instances.self_s", "instances.build.calls",
                "instances.build.self_s"):
        metrics[key] = at_setup[key]
    metrics["numpy.warnings"] = median([x["warnings"] for x in passes])
    metrics["cli.import_s"] = median(
        [child_seconds(IMPORT_PROBE) for _ in range(IMPORT_REPEATS)])
    metrics["trace.overhead_s"] = (median([x["wall_s"] for x in traced])
                                   - wall_s)
    metrics["traced_passes"] = len(traced)
    return metrics


def run(workload, seed, seconds, trace, units):
    setup = [child_seconds(SETUP_PROBE, workload, str(seed))
             for _ in range(SETUP_REPEATS)]
    passes, tracer = measure(workload, seed, seconds, trace)
    metrics = end_to_end(passes, setup)
    attempted = sum(x["pass"].attempted for x in passes)
    failed = sum(x["pass"].failed for x in passes)
    metrics["error_rate"] = failed / attempted
    if trace:
        metrics.update(per_layer(passes, tracer, metrics["wall_s"]))
    for key, value in metrics.items():
        if unit_of(key, units) == "count" and float(value).is_integer():
            metrics[key] = int(value)

    meta = metadata(workload, seed, seconds, trace)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "metrics": metrics,
                   "passes": [{"wall_s": x["wall_s"], "traced": x["traced"],
                               "warnings": x["warnings"],
                               "attempted": x["pass"].attempted,
                               "failed": x["pass"].failed,
                               "calls": x["pass"].calls} for x in passes]},
                  fh, indent=1, sort_keys=True)
    if tracer:
        tracer.save(stem + "-spans.npz",
                    [(0, passes[0]["spans"][0])]
                    + [x["spans"] for x in passes if x["traced"]])
    return meta, metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "vincl", "__init__.py")):
        print(f"error: no vincl sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]

    meta, metrics, attempted, failed = run(args.workload, args.seed,
                                           args.seconds, args.trace, units)
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name in sorted(metrics):
        print(f"{name:42s} {metrics[name]!r} {unit_of(name, units)}")
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
              for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
