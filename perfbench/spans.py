"""Outside-in tracing of sincint's layers.

The tracer records spans (name, parent, start, end, attributes) in
memory.  The benchmark opens spans around its own calls into the
package; `Tracer.installed()` additionally replaces the package's layer
entry points, where the package looks them up, by wrappers that open a
span per call, and puts the originals back on exit.  Nothing in the
package itself is changed.  A span's self time is its duration minus
the durations of its direct children.
"""

from __future__ import annotations

import functools
import statistics
from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "attrs",
                 "_tracer")

    def __init__(self, tracer: "Tracer", name: str, parent: int | None):
        self._tracer = tracer
        self.name = name
        self.parent = parent
        self.child_s = 0.0
        self.attrs: dict[str, float] = {}

    def __enter__(self) -> "Span":
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.end = perf_counter()
        self._tracer._close(self)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class _NullSpan:
    """Stand-in for a span when tracing is off: times nothing."""

    @property
    def attrs(self) -> dict[str, float]:
        return {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


class NullTracer:
    """Tracer interface that records nothing; used for timed runs."""

    _span = _NullSpan()

    def span(self, name: str) -> _NullSpan:
        return self._span

    def watch(self, engine) -> None:
        pass


def _space_attrs(space) -> dict[str, float]:
    return {"dim": space.dim, "breakdowns": int(space.breakdown)}


def _layer_entry_points():
    """(owner, attribute, span name, attrs-of-result) for every layer
    entry point, patched in the namespace that calls it."""
    import sincint.expsum as expsum
    import sincint.fem as fem
    import sincint.integrators as integrators
    import sincint.krylov as krylov

    return [
        (integrators, "build_space", "krylov.build_space", _space_attrs),
        (integrators, "apply_function", "krylov.apply_function", None),
        (integrators, "sym_eigendecomposition", "densefun.eigh", None),
        (integrators, "expsum_sinc", "expsum.apply", None),
        (integrators, "expsum_sinc2", "expsum.apply", None),
        (integrators, "estimate_spectral_radius", "expsum.spectral_radius",
         None),
        (integrators, "select_pole_count", "bounds.select",
         lambda n: {"degree": n}),
        (integrators.SecondOrderIVP, "rhs", "integrators.rhs", None),
        (expsum, "build_space", "krylov.build_space", _space_attrs),
        (expsum, "sym_eigendecomposition", "densefun.eigh", None),
        (krylov.spla, "splu", "krylov.lu", lambda lu: {"nnz": lu.nnz}),
        (krylov.ShiftedSolveCache, "solve", "krylov.solve", None),
        (fem, "assemble_p1", "fem.assemble", None),
    ]


class Tracer:
    """Records spans of one run; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object, bool]] = []

    def span(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        s = Span(self, name, parent)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        return s

    def _close(self, s: Span) -> None:
        self._stack.pop()
        if s.parent is not None:
            self.spans[s.parent].child_s += s.duration

    def _wrap(self, fn, name: str, attrs_of):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
            if attrs_of is not None:
                s.attrs.update(attrs_of(out))
            return out
        return traced

    def patch(self, owner, attr: str, name: str, attrs_of=None) -> None:
        """Replace owner.attr by a traced wrapper until restore()."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, self._wrap(original, name, attrs_of))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def watch(self, engine) -> None:
        """Trace a filter engine's psi and sigma products."""
        self.patch(engine, "psi", "integrators.psi")
        self.patch(engine, "sigma", "integrators.sigma")

    @contextmanager
    def installed(self):
        """Wrap every layer entry point for the duration of the block."""
        try:
            for owner, attr, name, attrs_of in _layer_entry_points():
                self.patch(owner, attr, name, attrs_of)
            yield self
        finally:
            self.restore()

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, summed self time and summed attrs."""
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            t = out.setdefault(s.name, {"calls": 0, "self_s": 0.0})
            t["calls"] += 1
            t["self_s"] += s.self_s
            for k, v in s.attrs.items():
                t[k] = t.get(k, 0) + v
        return out

    def top_level_s(self) -> float:
        return sum(s.duration for s in self.spans if s.parent is None)

    def dump(self) -> list[dict]:
        """Spans as plain records, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        return [{"name": s.name, "parent": s.parent,
                 "start_s": s.start - t0, "end_s": s.end - t0,
                 "self_s": s.self_s, **({"attrs": s.attrs} if s.attrs else {})}
                for s in self.spans]


# Per-layer metrics: (name, unit, span names, field of Tracer.totals()).
# Counts repeat exactly between runs of one workload; times are self
# times, so they add up, with trace.unattributed_s, to the traced run.
LAYER_METRICS = [
    ("krylov.lu_count", "count", ("krylov.lu",), "calls"),
    ("krylov.lu_s", "s", ("krylov.lu",), "self_s"),
    ("krylov.lu_nnz", "count", ("krylov.lu",), "nnz"),
    ("krylov.solve_calls", "count", ("krylov.solve",), "calls"),
    ("krylov.solve_s", "s", ("krylov.solve",), "self_s"),
    ("krylov.build_space_calls", "count", ("krylov.build_space",), "calls"),
    ("krylov.build_space_self_s", "s", ("krylov.build_space",), "self_s"),
    ("krylov.space_dim_sum", "count", ("krylov.build_space",), "dim"),
    ("krylov.breakdowns", "count", ("krylov.build_space",), "breakdowns"),
    ("krylov.apply_function_s", "s", ("krylov.apply_function",), "self_s"),
    ("integrators.make_filters_s", "s", ("integrators.make_filters",),
     "self_s"),
    ("integrators.init_s", "s", ("integrators.init",), "self_s"),
    ("integrators.step_calls", "count", ("integrators.step",), "calls"),
    ("integrators.step_self_s", "s", ("integrators.step",), "self_s"),
    ("integrators.psi_calls", "count", ("integrators.psi",), "calls"),
    ("integrators.sigma_calls", "count", ("integrators.sigma",), "calls"),
    ("integrators.filter_self_s", "s",
     ("integrators.psi", "integrators.sigma"), "self_s"),
    ("integrators.rhs_calls", "count", ("integrators.rhs",), "calls"),
    ("integrators.rhs_s", "s", ("integrators.rhs",), "self_s"),
    ("densefun.eigh_calls", "count", ("densefun.eigh",), "calls"),
    ("densefun.eigh_s", "s", ("densefun.eigh",), "self_s"),
    ("expsum.apply_calls", "count", ("expsum.apply",), "calls"),
    ("expsum.apply_self_s", "s", ("expsum.apply",), "self_s"),
    ("expsum.spectral_radius_s", "s", ("expsum.spectral_radius",), "self_s"),
    ("bounds.select_s", "s", ("bounds.select",), "self_s"),
    ("bounds.degree", "count", ("bounds.select",), "degree"),
    ("fem.setup_s", "s", ("fem.setup",), "self_s"),
    ("fem.assemble_s", "s", ("fem.assemble",), "self_s"),
    ("fem.atil_nnz", "count", ("fem.setup",), "atil_nnz"),
    ("problems.build_s", "s", ("problems.build",), "self_s"),
]


def layer_values(totals: dict[str, dict[str, float]]) -> dict[str, float]:
    """Evaluate LAYER_METRICS on one run's totals (0 for unused layers)."""
    unused = {"calls": 0, "self_s": 0.0}
    return {name: sum(totals.get(sp, unused).get(field, 0) for sp in spans)
            for name, _unit, spans, field in LAYER_METRICS}


def median_values(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per key, the median over runs; counts stay whole numbers."""
    out = {}
    for k in runs[0]:
        vals = [r[k] for r in runs]
        ints = all(isinstance(v, int) for v in vals)
        out[k] = (statistics.median_low if ints else statistics.median)(vals)
    return out
