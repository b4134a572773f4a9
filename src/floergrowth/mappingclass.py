"""Iterate dimensions of reducible surface classes, assembled per component.

In the standard form of a class, each piece contributes separately at every
iterate: fixed-curve annular pieces contribute homology dimensions (plus
prong-count corrections on twist boundaries), periodic pieces contribute
their Lefschetz numbers, and pseudo-Anosov pieces contribute their own
iterate-dimension sequences.  The asymptotic invariant of the class is the
largest pseudo-Anosov dilatation, or 1 when there is none (graph case).

Homology dimensions of the pieces are user inputs; the README records the
Euler-characteristic shortcuts for computing them.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .freegroup import Frozen, as_integer
from .growth import MIN_GROWTH_TERMS, GrowthReport, growth_estimate
from .zetafns import RadicalRational, divisors, periodic_zeta

FIXED_A = "fixed-a"
FIXED_B = "fixed-b"
FIXED_C = "fixed-c"
PERIODIC = "periodic"
PSEUDO_ANOSOV = "pseudo-anosov"

# kind: (field read at iterate n, what its "needs ..." message asks for, least
# number of prongs or None when prongs and count are unread, offset w: count
# is weighted by prongs + w)
_KINDS = {
    FIXED_A: ("dim", "a dim", None, 0),
    FIXED_B: ("dim", "a dim", 1, -1),
    FIXED_C: ("dim", "a dim", 2, 0),
    PERIODIC: ("lefschetz", "its lefschetz numbers", None, 0),
    PSEUDO_ANOSOV: ("dims", "an iterate-dimension sequence", None, 0),
}

CROSSCHECK_REL_TOL = 0.05


def _per_iterate(value, n: int, what: str):
    """Scalar fields are constant in n; list fields are read at iterate n."""
    if isinstance(value, (list, tuple)):
        if n > len(value):
            raise ValueError(f"missing {what} data at iterate {n}")
        return value[n - 1]
    return value


def _iterate_fields(kind: str) -> tuple[str, ...]:
    """The fields a kind reads at iterate n: its row's field, plus count
    when its row weights count by prongs."""
    field, _, least, _ = _KINDS[kind]
    return (field,) if least is None else (field, "count")


def _iterate_data(kind: str, field: str, value):
    """A nonempty tuple of integers, or for dim and count also a constant;
    only lefschetz numbers may be negative."""
    what = f"{kind} {field}"
    if field in ("dim", "count") and not isinstance(value, (list, tuple)):
        out = as_integer(value, what)
        values = (out,)
    else:
        out = values = tuple(as_integer(x, f"{what} entry") for x in value)
        if not values:
            raise ValueError(f"{what} list is empty")
    if field != "lefschetz" and min(values) < 0:
        raise ValueError(f"{what} must be nonnegative")
    return out


class ComponentSpec(Frozen):
    """One piece of the standard form; which fields apply depends on kind,
    and the fields a kind does not read are ignored.

    fixed-a: dim.  fixed-b: prongs p, count, dim (adds (p-1)*count).
    fixed-c: prongs q, count, dim (adds q*count).  periodic: lefschetz list.
    pseudo-anosov: dims list, optional dilatation (a finite number >= 1).
    dim and count accept a per-iterate list in place of a constant.
    """

    __slots__ = _fields = _compare = (
        "kind", "dim", "prongs", "count", "lefschetz", "dims", "dilatation",
    )

    def __init__(
        self,
        kind: str,
        dim: object = None,
        prongs: int | None = None,
        count: object = 1,
        lefschetz: tuple | None = None,
        dims: tuple | None = None,
        dilatation: float | None = None,
    ):
        self._set_fields(kind, dim, prongs, count, lefschetz, dims, dilatation)
        if not isinstance(kind, str) or kind not in _KINDS:  # a JSON list is unhashable
            raise ValueError(f"unknown component kind {kind!r}")
        field, needs, least, _ = _KINDS[kind]
        if getattr(self, field) is None:
            raise ValueError(f"{kind} component needs {needs}")
        if least is not None:
            prongs = None if prongs is None else as_integer(prongs, f"{kind} prongs")
            if prongs is None or prongs < least:
                raise ValueError(f"{kind} component needs prongs >= {least}")
            object.__setattr__(self, "prongs", prongs)
        for key in _iterate_fields(kind):
            object.__setattr__(self, key, _iterate_data(kind, key, getattr(self, key)))
        d = dilatation
        number = isinstance(d, (int, float)) and not isinstance(d, bool)
        if d is not None and not (number and 1 <= d < math.inf):  # NaN fails too
            raise ValueError(f"dilatation must be a finite number >= 1, got {d!r}")

    def contribution(self, n: int) -> int:
        if n < 1:
            raise ValueError("n must be >= 1")
        field, _, least, weight = _KINDS[self.kind]
        value = _per_iterate(getattr(self, field), n, f"{self.kind} {field}")
        if least is None:
            return value
        count = _per_iterate(self.count, n, f"{self.kind} count")
        return value + (self.prongs + weight) * count

    def max_iterate(self) -> int | None:
        """Largest n with data, or None when constant in n."""
        values = [getattr(self, key) for key in _iterate_fields(self.kind)]
        lengths = [len(v) for v in values if isinstance(v, tuple)]
        return min(lengths) if lengths else None

    @classmethod
    def from_json(cls, data: dict) -> "ComponentSpec":
        """Absent fields take their defaults and unknown keys are ignored; kind
        is looked up first, so a missing kind is reported by name."""
        kind = data["kind"]
        rest = cls._fields[1:]  # every field after kind
        return cls(kind, **{key: data[key] for key in rest if key in data})


class ClassSpec(Frozen):
    """A mapping class in standard form: the list of its pieces."""

    __slots__ = _fields = _compare = ("components",)

    def __init__(self, components: tuple[ComponentSpec, ...]):
        components = tuple(components)
        if not components:
            raise ValueError("a class needs at least one component")
        self._set_fields(components)

    def max_iterate(self) -> int | None:
        lengths = [c.max_iterate() for c in self.components if c.max_iterate() is not None]
        return min(lengths) if lengths else None

    def pa_components(self) -> list[ComponentSpec]:
        return [c for c in self.components if c.kind == PSEUDO_ANOSOV]

    @classmethod
    def from_json(cls, data: dict) -> "ClassSpec":
        return cls(tuple(ComponentSpec.from_json(c) for c in data["components"]))


def assemble_dim(spec: ClassSpec, n: int) -> int:
    """Total iterate dimension at n: the sum of the component contributions."""
    return sum(c.contribution(n) for c in spec.components)


def asymptotic_invariant(spec: ClassSpec, n_max: int = 30) -> GrowthReport:
    """Growth of the assembled dimensions, pinned by dilatations when given.

    When every pseudo-Anosov piece carries a dilatation, the invariant is
    their maximum (1 with no such piece) and the sequence proxy cross-checks
    it; a relative gap beyond 5% at the window is rejected as inconsistent
    input.
    """
    pa = spec.pa_components()
    dilatations = [c.dilatation for c in pa]
    have_all_dil = all(d is not None for d in dilatations)
    lam = max([float(d) for d in dilatations if d is not None], default=1.0)

    limit = spec.max_iterate()
    horizon = n_max if limit is None else min(n_max, limit)
    estimate = None
    window = None
    if horizon >= MIN_GROWTH_TERMS:
        est = growth_estimate([assemble_dim(spec, n) for n in range(1, horizon + 1)])
        estimate, window = est.value, (est.window_start, est.n_terms)

    provenance = {}
    if have_all_dil:
        lower = upper = lam
        provenance["bounds"] = (
            "largest pseudo-Anosov dilatation" if pa else "no pseudo-Anosov piece"
        )
        # Bounded and linear summands overshoot the finite-window proxy
        # (c^(1/n) decays slowly), so only a supplied dilatation is held to it.
        if pa and estimate is not None and abs(estimate - lam) > CROSSCHECK_REL_TOL * lam:
            raise ValueError(
                f"supplied dilatations give {lam} but the dims sequence grows like "
                f"{estimate} at the window; data looks inconsistent"
            )
    else:
        lower, upper = 1.0, float("inf")
        provenance["bounds"] = "dilatations not supplied for every pseudo-Anosov piece"
    if estimate is not None:
        provenance["sequence_estimate"] = "tail-window proxy of assembled dims"

    entropy = {"lower_bound": math.log(lower)}
    if math.isfinite(upper):
        entropy["upper_bound"] = math.log(upper)
    if estimate is not None:
        entropy["sequence_estimate"] = math.log(estimate)  # growth_estimate is >= 1
    return GrowthReport(
        lower_bound=lower,
        upper_bound_spectral=upper,
        upper_bound_norm=upper,
        sequence_estimate=estimate,
        entropy_log=entropy,
        provenance=provenance,
        window=window,
    )


class GraphTestResult(NamedTuple):
    """Outcome of the geometric-structure test on the mapping torus."""

    is_graph_manifold: bool
    notes: tuple[str, ...]

    def __bool__(self):
        return self.is_graph_manifold

    def to_json(self) -> dict:
        return {"is_graph_manifold": self.is_graph_manifold, "notes": list(self.notes)}


def graph_manifold_test(spec: ClassSpec) -> GraphTestResult:
    """The mapping torus is a graph manifold exactly when no piece is
    pseudo-Anosov (equivalently, the asymptotic invariant is 1)."""
    pa = spec.pa_components()
    notes = []
    if not pa:
        notes.append("no pseudo-Anosov piece: asymptotic invariant 1")
    else:
        notes.append(f"{len(pa)} pseudo-Anosov piece(s): asymptotic invariant exceeds 1")
        if len(spec.components) == 1:
            notes.append("single pseudo-Anosov class: interior hyperbolic of finite volume")
        known = [c.dilatation for c in pa if c.dilatation is not None]
        if known:
            notes.append(f"largest supplied dilatation {max(known)}")
    return GraphTestResult(not pa, tuple(notes))


def periodic_zeta_for_class(spec: ClassSpec, period: int) -> RadicalRational:
    """Radical closed form for a class with no pseudo-Anosov piece, taking the
    divisor-iterate dimensions from the assembler."""
    if spec.pa_components():
        raise ValueError("class has a pseudo-Anosov piece; its zeta is not radical-rational")
    dims = {d: assemble_dim(spec, d) for d in divisors(period)}
    return periodic_zeta(period, dims)
