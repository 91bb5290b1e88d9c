"""Span tracing of the zygmund layers, installed from outside the library.

`install()` replaces the public functions named in `_SPANS` with timing
wrappers at every import site: modules bind names at import, so
`norms.sample`, `witness.lq_norm` or `rates.build_witness` are separate
references to the same function, and each is rebound.  `numpy.linalg.lstsq`
is wrapped the same way to time the IRLS solves.

Every wrapped call is a span.  A span's self time is its duration minus the
durations of the spans it directly contains; for `lq_norm` the total time,
which includes its `sample` calls, is kept too, per exponent class.  Counts that the library does
not expose are derived from nested spans: a quadrature doubling is one more
`sample` call inside an `lq_norm` span, a calibration cache hit is a
`calibrate_alpha0` span with no `sample` call inside it, and a majorant tail
doubling is one more `lq_norm` call inside an `upper_bound_estimate` span.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# The per-layer metrics this module produces, in report order.
Q_CLASSES = ("q1", "q2", "qeven", "qother")
CLI_COMMANDS = ("classify", "rate-check", "witness", "table-vnad", "best-approx")
COUNT_METRICS = (
    "trig.sample.calls",
    "trig.sample.nodes",
    "trig.sample.max_nodes",
    *(f"norms.lq_norm.{c}.{k}" for c in Q_CLASSES for k in ("calls", "nodes", "doublings")),
    "norms.best_approx.calls",
    "norms.best_approx.iterations",
    "norms.best_approx.converged",
    "witness.calibrate_alpha0.calls",
    "witness.calibrate_alpha0.cache_hits",
    "witness.build_witness.calls",
    "rates.upper_bound_estimate.calls",
    "rates.upper_bound_estimate.tail_doublings",
    "rates.critical_integral.calls",
    "decay.classify_regime.calls",
)
TIME_METRICS = (
    "trig.sample.self_s",
    *(f"norms.lq_norm.{c}.{k}" for c in Q_CLASSES for k in ("self_s", "total_s")),
    "norms.best_approx.self_s",
    "norms.best_approx.lstsq_s",
    "witness.calibrate_alpha0.self_s",
    "witness.build_witness.self_s",
    "rates.upper_bound_estimate.self_s",
    "rates.critical_integral.self_s",
    "decay.classify_regime.self_s",
    *(f"cli.{c}.s" for c in CLI_COMMANDS),
)


def q_class(q: float) -> str:
    """Exponent class of an L_q norm: q = 1, q = 2, even integer q > 2, other.

    A dual exponent q' = q / (q - 1) carries rounding error (q = 1.2 gives
    q' = 6.000000000000001), so integers are recognised to 1e-9.
    """
    k = round(q)
    if abs(q - k) > 1.0e-9:
        return "qother"
    if k == 1:
        return "q1"
    if k == 2:
        return "q2"
    return "qeven" if k % 2 == 0 else "qother"


class _Span:
    __slots__ = ("child_s", "samples", "nodes", "lq_calls")

    def __init__(self) -> None:
        self.child_s = 0.0  # duration of directly nested spans
        self.samples = 0  # sample calls anywhere inside
        self.nodes = 0  # nodes of those sample calls
        self.lq_calls = 0  # lq_norm calls directly inside


class Tracer:
    """Span stack and per-layer accumulators for one process."""

    def __init__(self) -> None:
        self.stats: dict[str, float] = defaultdict(float)
        self._stack: list[_Span] = []

    def span(self, fn, record):
        """Wrap fn so that each call is a span; record(span, self_s, args, kwargs, result)."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = _Span()
            self._stack.append(span)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                duration = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    parent = self._stack[-1]
                    parent.child_s += duration
                    parent.samples += span.samples
                    parent.nodes += span.nodes
                record(span, duration - span.child_s, args, kwargs, result)

        return wrapper

    def _parent(self) -> _Span | None:
        return self._stack[-1] if self._stack else None

    # -- recorders, one per wrapped function --------------------------------

    def _sample(self, span, self_s, args, kwargs, result):
        m = args[1] if len(args) > 1 else kwargs["m"]
        st = self.stats
        st["trig.sample.calls"] += 1
        st["trig.sample.nodes"] += m
        st["trig.sample.max_nodes"] = max(st["trig.sample.max_nodes"], m)
        st["trig.sample.self_s"] += self_s
        parent = self._parent()
        if parent is not None:
            parent.samples += 1
            parent.nodes += m

    def _lq_norm(self, span, self_s, args, kwargs, result):
        req = args[1] if len(args) > 1 else kwargs["req"]
        key = f"norms.lq_norm.{q_class(req.q)}"
        st = self.stats
        st[f"{key}.calls"] += 1
        st[f"{key}.nodes"] += span.nodes
        st[f"{key}.doublings"] += max(span.samples - 1, 0)
        st[f"{key}.self_s"] += self_s
        st[f"{key}.total_s"] += self_s + span.child_s
        parent = self._parent()
        if parent is not None:
            parent.lq_calls += 1

    def _best_approx(self, span, self_s, args, kwargs, result):
        st = self.stats
        st["norms.best_approx.calls"] += 1
        st["norms.best_approx.self_s"] += self_s
        if result is not None:
            st["norms.best_approx.iterations"] += result.iterations
            st["norms.best_approx.converged"] += int(result.converged)

    def _lstsq(self, span, self_s, args, kwargs, result):
        self.stats["norms.best_approx.lstsq_s"] += self_s

    def _calibrate_alpha0(self, span, self_s, args, kwargs, result):
        st = self.stats
        st["witness.calibrate_alpha0.calls"] += 1
        st["witness.calibrate_alpha0.cache_hits"] += int(span.samples == 0)
        st["witness.calibrate_alpha0.self_s"] += self_s

    def _build_witness(self, span, self_s, args, kwargs, result):
        self.stats["witness.build_witness.calls"] += 1
        self.stats["witness.build_witness.self_s"] += self_s

    def _upper_bound_estimate(self, span, self_s, args, kwargs, result):
        n = args[2] if len(args) > 2 else kwargs["n"]
        st = self.stats
        st["rates.upper_bound_estimate.calls"] += 1
        # one head norm when n > 1, one first tail norm, then one per doubling
        st["rates.upper_bound_estimate.tail_doublings"] += span.lq_calls - (n > 1) - 1
        st["rates.upper_bound_estimate.self_s"] += self_s

    def _critical_integral(self, span, self_s, args, kwargs, result):
        self.stats["rates.critical_integral.calls"] += 1
        self.stats["rates.critical_integral.self_s"] += self_s

    def _classify_regime(self, span, self_s, args, kwargs, result):
        self.stats["decay.classify_regime.calls"] += 1
        self.stats["decay.classify_regime.self_s"] += self_s

    def time_command(self, command: str, fn, *args):
        """Run fn(*args), one CLI command, and record its in-process time."""
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.stats[f"cli.{command}.s"] += time.perf_counter() - t0


# (module, function) for every span; Tracer._<function> records it
_SPANS = (
    ("zygmund.trig", "sample"),
    ("zygmund.norms", "lq_norm"),
    ("zygmund.norms", "best_approx"),
    ("zygmund.witness", "calibrate_alpha0"),
    ("zygmund.witness", "build_witness"),
    ("zygmund.rates", "upper_bound_estimate"),
    ("zygmund.rates", "critical_integral"),
    ("zygmund.decay", "classify_regime"),
)


def install(tracer: Tracer) -> None:
    """Rebind every reference to a traced function to its span wrapper.

    Scans every loaded `zygmund` module, so callers must import library
    modules (not bare names) to be traced.  Raises if a function is left with
    no rebound site, since its span would silently read zero.
    """
    import importlib

    import numpy.linalg

    wrappers = {}  # id(original) -> (qualified name, wrapper)
    for mod_name, fn_name in _SPANS:
        fn = getattr(importlib.import_module(mod_name), fn_name)
        wrappers[id(fn)] = (f"{mod_name}.{fn_name}", tracer.span(fn, getattr(tracer, f"_{fn_name}")))

    modules = [m for name, m in sys.modules.items() if name == "zygmund" or name.startswith("zygmund.")]
    sites = {name: 0 for name, _ in wrappers.values()}
    for module in modules:
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None:
                setattr(module, attr, entry[1])
                sites[entry[0]] += 1
    missing = [name for name, count in sites.items() if count == 0]
    if missing:
        raise RuntimeError(f"trace: no import site found for {missing}")

    numpy.linalg.lstsq = tracer.span(numpy.linalg.lstsq, tracer._lstsq)
