"""Span tracer for one traced suite run, installed from outside the package.

``install`` wraps public functions and methods of spinorlab's modules.  Each
wrapped call opens a span on a stack; a span's self time is its duration
minus the time of the spans opened inside it, so the self times of all
metrics add up to the duration of the root span around ``run_suite``.

Three rules keep the numbers meaningful:

- A call made directly inside a span of the same metric belongs to that span
  (``MultiPoly.__sub__`` adds through ``__add__``; ``FracElem.__add__``
  builds a ``FracElem``), so counts are top-level operations.
- Set-up spans (``lie.build``, ``moment.context``) absorb everything under
  them: the rank loop of ``_CoordinateSolver`` is part of building the
  algebra, not of the run-time matrix metrics.
- ``rings`` metrics run millions of times, so they are aggregated in place
  and never recorded as individual spans.

Modules bind names with ``from .matrix import mat_rank_kernel``, so every
binding of a wrapped object in every spinorlab module and class is replaced;
the benchmark's test checks that each counter fires on the workload that
drives it.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

from spinorlab.matrix import ExactMatrix
from spinorlab.rings import Dual, FracElem, LaurentPoly, MultiPoly

ROOT = "suites.harness"

# (module, attribute, metric).  Aliases such as ``__radd__ = __add__`` are
# bound to the same function object and are patched with it.
TARGETS = [
    ("rings", "MultiPoly.__init__", "rings.multipoly_new"),
    ("rings", "MultiPoly.__mul__", "rings.multipoly_mul"),
    ("rings", "MultiPoly.__add__", "rings.multipoly_add"),
    *(
        ("rings", f"FracElem.{op}", "rings.fracelem_ops")
        for op in (
            "__init__", "__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
            "__truediv__", "__rtruediv__", "__pow__", "__eq__", "reciprocal",
        )
    ),
    ("rings", "LaurentPoly.__mul__", "rings.laurent_mul"),
    ("rings", "Dual.__mul__", "rings.dual_mul"),
    ("matrix", "ExactMatrix.__mul__", "matrix.mul"),
    ("matrix", "ExactMatrix.apply", "matrix.apply"),
    ("matrix", "ExactMatrix.__add__", "matrix.add_scale"),
    ("matrix", "ExactMatrix.__sub__", "matrix.add_scale"),
    ("matrix", "ExactMatrix.scale", "matrix.add_scale"),
    ("matrix", "mat_rank_kernel", "matrix.rank_kernel"),
    ("matrix", "rank", "matrix.rank"),
    ("matrix", "solve_linear", "matrix.solve"),
    ("matrix", "inverse", "matrix.inverse"),
    ("matrix", "char_poly", "matrix.char_poly"),
    *(
        ("lie", fn, "lie.build")
        for fn in (
            "sp_algebra", "sp_standard", "sl2_algebra", "sl2_standard",
            "sl2_w_plus_wdual", "sl2_sym_cube",
        )
    ),
    ("lie", "MatrixLieAlgebra.from_coordinates", "lie.coords"),
    ("lie", "MatrixLieAlgebra.coordinates_of", "lie.coords"),
    ("lie", "SymplecticRep.rho_of", "lie.coords"),
    ("moment", "MomentContext.__init__", "moment.context"),
    ("moment", "equivariance_check", "moment.equivariance"),
    ("moment", "moment_differential", "moment.differential"),
    ("moment", "gaiotto_field", "moment.gaiotto"),
    ("moment", "is_nilpotent_cone_member", "moment.gaiotto"),
    ("petri", "petri_matrix", "petri.matrix"),
    ("petri", "petri_kernel", "petri.kernel"),
    ("cech", "random_model", "cech.random_model"),
    ("cech", "random_morphism", "cech.random_morphism"),
    ("cech", "j_injectivity_experiment", "cech.chase"),
    ("cech", "les_segment", "cech.les"),
    ("cocycle", "fresh_symbol_cocycle", "cocycle.fresh"),
    ("cocycle", "verify_form_preservation", "cocycle.form_check"),
    ("cocycle", "necessity_solve", "cocycle.necessity"),
    ("hecke", "hecke_family", "hecke.family"),
    ("hecke", "verify_symplectic_family", "hecke.family"),
    ("hecke", "glue_check", "hecke.glue"),
    ("hecke", "symplectic_complete", "hecke.completion"),
    ("hecke", "verify_completion", "hecke.completion"),
    *(
        ("bbflow", fn, "bbflow.checks")
        for fn in (
            "graded_model", "strictly_filtered_phi", "bb_limit",
            "fixed_point_scale_check", "torus_preserves_form",
            "lambda_s_conversion_check",
        )
    ),
    *(
        ("rrdim", fn, "rrdim")
        for fn in (
            "pair_euler_identity", "y_dimension_identity",
            "pair_euler_identity_symbolic", "y_dimension_symbolic", "stability_scan",
        )
    ),
    ("suites", "run_suite", ROOT),
]

COUNT_ONLY = {"rings.multipoly_new", "rings.laurent_mul", "rings.dual_mul"}
ABSORBING = {"lie.build", "moment.context"}

# The fields each metric reports, in output order.
FIELDS = {
    "rings.multipoly_new": ("count",),
    "rings.laurent_mul": ("count",),
    "rings.dual_mul": ("count",),
    "lie.build": ("self_s",),
    "moment.context": ("self_s",),
    ROOT: (),
}


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit, in order."""
    names = []
    for metric in dict.fromkeys(m for _, _, m in TARGETS):
        for field in FIELDS.get(metric, ("count", "self_s")):
            names.append((f"{metric}.{field}", "count" if field == "count" else "s"))
    return names + [
        ("matrix.rank_kernel.max_shape", "entries"),
        ("matrix.entry_bits.max", "bits"),
        ("cech.extend_accept_ratio", "ratio"),
        ("suites.harness_self_s", "s"),
        ("suites.cpu_s", "s"),
        ("suites.trace_overhead_s", "s"),
    ]


def _bits(x) -> int:
    """Largest numerator or denominator bit-length in a value of the tower;
    0 for anything else."""
    if isinstance(x, int):
        return abs(x).bit_length()
    if isinstance(x, Fraction):
        return max(abs(x.numerator).bit_length(), x.denominator.bit_length())
    if isinstance(x, MultiPoly):
        return max(map(_bits, x.terms.values()), default=0)
    if isinstance(x, FracElem):
        return max(_bits(x.num), _bits(x.den))
    if isinstance(x, LaurentPoly):
        return max(map(_bits, x.coeffs.values()), default=0)
    if isinstance(x, Dual):
        return max(_bits(x.re), _bits(x.eps))
    return 0


def _values(x):
    """The ring elements in arguments and results: matrix entries, vectors."""
    if isinstance(x, ExactMatrix):
        yield from (v for row in x.entries for v in row)
    elif isinstance(x, (list, tuple)):
        for item in x:
            yield from _values(item)
    elif x is not None:
        yield x


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # metric -> [count, self seconds]
        self.spans: list[tuple] = []  # (span id, parent id, metric, start, end)
        self.max_shape = (0, 0)
        self.entry_bits = 0
        self.kept_columns = 0
        self._stack: list[list] = []  # [metric, child seconds, absorbing, span id]
        self._next_id = 0

    # -- observers run inside the span they observe --------------------

    def _observe_bits(self, args, result):
        # operands as well as results: an injective map's kernel is empty
        bits = max(map(_bits, _values((args, result))), default=0)
        self.entry_bits = max(self.entry_bits, bits)

    def _observe_rank_kernel(self, args, result):
        M = args[0]
        if M.rows * M.cols > self.max_shape[0] * self.max_shape[1]:
            self.max_shape = (M.rows, M.cols)
        self._observe_bits(args, result[1])

    def _observe_random_model(self, args, model):
        a00, a01, _, _ = model.dims
        self.kept_columns += a01 - a00

    def _observer(self, metric):
        return {
            "matrix.rank_kernel": self._observe_rank_kernel,
            "matrix.rank": lambda args, _rank: self._observe_bits(args, None),
            "matrix.solve": self._observe_bits,
            "matrix.inverse": self._observe_bits,
            "matrix.char_poly": self._observe_bits,
            "cech.random_model": self._observe_random_model,
        }.get(metric)

    # -- wrappers -------------------------------------------------------

    def _count(self, metric, fn):
        stat = self.stats.setdefault(metric, [0, 0.0])

        def wrapper(*args, **kwargs):
            stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, metric, fn):
        stat = self.stats.setdefault(metric, [0, 0.0])
        stack, spans, clock = self._stack, self.spans, time.perf_counter
        record = not metric.startswith("rings.")
        absorbing = metric in ABSORBING
        observe = self._observer(metric)
        tracer = self

        def wrapper(*args, **kwargs):
            if stack:
                top = stack[-1]
                if top[2] or top[0] == metric:
                    return fn(*args, **kwargs)
                parent = top[3]
            else:
                parent = 0
            if record:
                tracer._next_id += 1
                span_id = tracer._next_id
            else:
                span_id = parent
            frame = [metric, 0.0, absorbing, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if observe is not None:
                    observe(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                stat[0] += 1
                stat[1] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if record:
                    spans.append((span_id, parent, metric, start, end))

        return wrapper

    # -- results --------------------------------------------------------

    def wall_s(self) -> float:
        return next(end - start for _, _, m, start, end in self.spans if m == ROOT)

    def extend_accept_ratio(self) -> float:
        """Basis columns kept by ``random_model`` per ``rank`` call made
        directly under it."""
        model_spans = {sid for sid, _, m, _, _ in self.spans if m == "cech.random_model"}
        rank_calls = sum(1 for _, p, m, _, _ in self.spans if m == "matrix.rank" and p in model_spans)
        return self.kept_columns / rank_calls if rank_calls else 0.0

    def metrics(self) -> dict:
        """Per-layer metric values of this run; the process-level ones
        (``suites.cpu_s``, ``suites.trace_overhead_s``) come from outside."""
        values = {}
        for name, _ in per_layer_metrics():
            metric, _, field = name.rpartition(".")
            if field in ("count", "self_s"):
                values[name] = self.stats[metric][field == "self_s"]
        values["matrix.rank_kernel.max_shape"] = self.max_shape[0] * self.max_shape[1]
        values["matrix.entry_bits.max"] = self.entry_bits
        values["cech.extend_accept_ratio"] = self.extend_accept_ratio()
        values["suites.harness_self_s"] = self.stats[ROOT][1]
        return values

    def layers(self) -> dict:
        """Self time per layer, the harness on its own; sums to ``wall_s``."""
        out: dict[str, float] = {}
        for metric, (_, self_s) in self.stats.items():
            layer = "suites (harness)" if metric == ROOT else metric.split(".")[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def write_spans(self, path, run_id: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, metric, start, end in self.spans:
                fh.write(json.dumps({
                    "run_id": run_id, "span_id": sid, "parent_id": parent,
                    "name": metric, "start": start, "end": end,
                }) + "\n")
            for metric, (count, self_s) in self.stats.items():
                if metric.startswith("rings."):
                    line = {"run_id": run_id, "name": metric, "aggregate": True, "count": count}
                    if metric not in COUNT_ONLY:
                        line["self_s"] = self_s
                    fh.write(json.dumps(line) + "\n")


def _namespaces():
    """Every module and class dict of spinorlab that can hold a binding."""
    for name, module in list(sys.modules.items()):
        if name == "spinorlab" or name.startswith("spinorlab."):
            yield module
            for value in vars(module).values():
                if isinstance(value, type) and value.__module__ == name:
                    yield value


def install(tracer: Tracer) -> None:
    """Replace every binding of every target in spinorlab with its wrapper."""
    import spinorlab.suites  # noqa: F401  (loads every module of the package)

    wrappers = {}  # id of the original -> its wrapper, which keeps it alive
    for module, attr, metric in TARGETS:
        owner = sys.modules[f"spinorlab.{module}"]
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        original = vars(owner)[name]
        make = tracer._count if metric in COUNT_ONLY else tracer._span
        wrappers[id(original)] = make(metric, original)
    for ns in _namespaces():
        for key, value in list(vars(ns).items()):
            if id(value) in wrappers:
                setattr(ns, key, wrappers[id(value)])
