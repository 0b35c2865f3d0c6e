"""Span tracer for the per-layer run.

`Tracer.install` rebinds module-level names of vincl, and the numpy/scipy
linear-algebra entry points vincl calls, to wrappers that record one span
per call: its name, start, end and parent span.  A wrapper records only
inside an open span, so the benchmark opens a root span (`Tracer.root`)
around each call it times and its own output checks stay untraced.

Spans live in flat arrays for the whole run and are saved once it ends.
`layer_metrics` turns the spans of one pass into per-layer counts and self
times; a span's self time is its duration minus the time its direct child
spans cover.
"""

import time
from array import array
from contextlib import contextmanager

import numpy as np
import scipy.linalg

import vincl
import vincl.certify
import vincl.cli
import vincl.instances
import vincl.operators
import vincl.resolvent
import vincl.solver
import vincl.space

VINCL_MODULES = (vincl, vincl.space, vincl.operators, vincl.resolvent,
                 vincl.solver, vincl.certify, vincl.instances, vincl.cli)

# (module, function names, span name or None for "<layer>.<function>")
FUNCTIONS = (
    (vincl.space, ("as_vector", "duality_map", "norm", "inner",
                   "characteristic_inequality_check"), None),
    (vincl.operators, ("eval_H_on_point",), "operators.eval_H"),
    (vincl.operators, ("eval_M_on_point",), "operators.eval_M"),
    (vincl.operators, ("h_composite", "m_composite"), "operators.composite"),
    (vincl.operators, ("set_values", "inclusion_residual",
                       "hausdorff_distance"), None),
    (vincl.resolvent, ("resolve", "forward", "audit_lipschitz",
                       "theoretical_r_m"), None),
    (vincl.solver, ("solve", "nadler_select"), None),
    (vincl.solver, ("theta", "contraction_factor_bound"), "solver.theta"),
    (vincl.solver, ("check_condition_vi",), "solver.check_condition"),
    (vincl.certify, tuple(n for n in dir(vincl.certify)
                          if n.startswith("certify_")), None),
    (vincl.instances, ("get_instance", "example_3_2", "example_3_3",
                       "example_4_7", "reduction_constructors"),
     "instances.build"),
)

MAP_CLASSES = (vincl.operators.AffineMap, vincl.operators.AffinePairMap)

# Entry points beyond those vincl calls today are wrapped too, so that a
# factorization a later version adopts is counted as one.
NUMPY_LINALG = ("det", "slogdet", "cond", "svd", "solve", "norm", "eig",
                "eigh", "eigvals", "eigvalsh", "inv", "lstsq", "matrix_rank",
                "pinv", "qr", "cholesky")
SCIPY_LINALG = ("det", "svd", "svdvals", "solve", "eig", "eigh", "eigvals",
                "eigvalsh", "inv", "qr", "qz", "lu_factor", "lu_solve",
                "cho_factor", "cho_solve")

# O(d^3) factorizations; "linalg.norm2" is the spectral norm of a matrix,
# which numpy computes by an SVD.
DECOMPOSITIONS = frozenset(
    f"linalg.{n}" for n in ("det", "slogdet", "cond", "svd", "svdvals",
                            "solve", "eig", "eigh", "eigvals", "eigvalsh",
                            "inv", "lstsq", "matrix_rank", "pinv", "qr",
                            "qz", "cholesky", "lu_factor", "cho_factor",
                            "norm2"))

LAYERS = ("space", "operators", "resolvent", "solver", "certify",
          "instances", "linalg")


def _norm_name(args, kwargs):
    x = args[0] if args else kwargs.get("x")
    ord_ = args[1] if len(args) > 1 else kwargs.get("ord")
    if np.ndim(x) == 2 and ord_ in (2, -2, "nuc"):
        return "linalg.norm2"
    return "linalg.norm"


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self._undo = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, name):
        nid = None if callable(name) else self._id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = self._open(nid if nid is not None
                             else self._id(name(args, kwargs)))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owners, original, wrapper):
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._undo.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def install(self):
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module, fnames, span in FUNCTIONS:
            layer = module.__name__.split(".")[-1]
            for fname in fnames:
                original = getattr(module, fname)
                name = span or f"{layer}.{fname.replace('certify_', '')}"
                self._rebind(VINCL_MODULES, original,
                             self._wrap(original, name))
        for cls in MAP_CLASSES:
            self._rebind((cls,), cls.__dict__["__call__"],
                         self._wrap(cls.__dict__["__call__"],
                                    "operators.map_eval"))
        self._id("linalg.norm2")
        for module, fnames in ((np.linalg, NUMPY_LINALG),
                               (scipy.linalg, SCIPY_LINALG)):
            for fname in fnames:
                original = getattr(module, fname)
                name = _norm_name if fname == "norm" else f"linalg.{fname}"
                self._rebind((module,), original, self._wrap(original, name))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        """Index the next span will get."""
        return len(self.start)

    def save(self, path, pass_bounds):
        """Write every span; `pass_bounds` are (first, end) index pairs,
        the set-up first and then each traced pass."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start), end=np.array(self.end),
            pass_bounds=np.array(pass_bounds, dtype=np.int64))


def _has_ancestor(parent, flag):
    """For each span, whether some ancestor has `flag` set."""
    out = np.zeros(parent.shape, dtype=bool)
    cur = parent.copy()
    while True:
        live = cur >= 0
        if not live.any():
            return out
        out[live] |= flag[cur[live]]
        cur[live] = parent[cur[live]]


def layer_metrics(tracer, lo, hi, counters):
    """Per-layer metrics of the spans with index in [lo, hi).

    `counters` holds counts the pass read from result objects:
    solver.iterations and certify.sampled_rhos.
    """
    nid = np.array(tracer.name_id[lo:hi], dtype=np.int32)
    parent = np.array(tracer.parent[lo:hi], dtype=np.int32) - lo
    parent[parent < -1] = -1
    dur = np.array(tracer.end[lo:hi]) - np.array(tracer.start[lo:hi])
    own = dur.copy()
    child = parent >= 0
    np.subtract.at(own, parent[child], dur[child])

    names = tracer.names
    calls = np.bincount(nid, minlength=len(names))
    self_s = np.bincount(nid, weights=own, minlength=len(names))

    def spans(pred):
        return np.isin(nid, [i for i, n in enumerate(names) if pred(n)])

    is_resolve = spans(lambda n: n == "resolvent.resolve")
    is_decomp = spans(lambda n: n in DECOMPOSITIONS)
    # a damped resolve calls eval_H_on_point once per inner iteration
    inner = (spans(lambda n: n == "operators.eval_H") & child
             & is_resolve[np.where(child, parent, 0)])
    n_damped = np.unique(parent[inner]).size
    under_resolve = _has_ancestor(parent, is_resolve)
    under_solve = _has_ancestor(parent, spans(lambda n: n == "solver.solve"))
    under_certify = _has_ancestor(parent,
                                  spans(lambda n: n.startswith("certify.")))

    def ratio(num, den):
        return float(num) / den if den else 0.0

    iterations = counters.get("solver.iterations", 0)
    out = {
        "space.as_vector.calls_per_iter": ratio(
            (spans(lambda n: n == "space.as_vector") & under_solve).sum(),
            iterations),
        "solver.iterations": iterations,
        "resolvent.inner_iters": int(inner.sum()),
        "resolvent.inner_iters_per_resolve": ratio(inner.sum(), n_damped),
        "linalg.decomp.calls": int(is_decomp.sum()),
        "linalg.decomp.self_s": float(own[is_decomp].sum()),
        "linalg.decomps_per_resolve": ratio(
            (is_decomp & under_resolve).sum(), is_resolve.sum()),
        "linalg.norm.calls": int(calls[names.index("linalg.norm")]
                                 + calls[names.index("linalg.norm2")]),
        "certify.samples": int(
            (spans(lambda n: n == "operators.map_eval")
             & under_certify).sum()),
        "certify.range_probes_per_rho": ratio(
            (is_resolve & under_certify).sum(),
            counters.get("certify.sampled_rhos", 0)),
        "trace.spans": int(hi - lo),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(sum(
            t for n, t in zip(names, self_s) if n.startswith(layer + ".")))
    for name, n_calls, t in zip(names, calls, self_s):
        if not name.startswith("bench."):
            out.setdefault(f"{name}.calls", int(n_calls))
            out.setdefault(f"{name}.self_s", float(t))
    return out
