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
import operator
from dataclasses import dataclass

from .growth import GrowthReport, growth_estimate
from .zetafns import RadicalRational, divisors, periodic_zeta

FIXED_A = "fixed-a"
FIXED_B = "fixed-b"
FIXED_C = "fixed-c"
PERIODIC = "periodic"
PSEUDO_ANOSOV = "pseudo-anosov"

_KINDS = (FIXED_A, FIXED_B, FIXED_C, PERIODIC, PSEUDO_ANOSOV)
_ALIASES = {"pseudoAnosov": PSEUDO_ANOSOV, "pA": PSEUDO_ANOSOV}

CROSSCHECK_REL_TOL = 0.05


def _per_iterate(value, n: int, what: str):
    """Scalar fields are constant in n; list fields are read at iterate n."""
    if isinstance(value, (list, tuple)):
        if n > len(value):
            raise ValueError(f"missing {what} data at iterate {n}")
        return value[n - 1]
    return value


def _integer(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class ComponentSpec:
    """One piece of the standard form; which fields apply depends on kind.

    fixed-a: dim.  fixed-b: prongs p, count, dim (adds (p-1)*count).
    fixed-c: prongs q, count, dim (adds q*count).  periodic: lefschetz list.
    pseudo-anosov: dims list, optional dilatation.  dim and count accept a
    per-iterate list in place of a constant.
    """

    kind: str
    dim: object = None
    prongs: int | None = None
    count: object = 1
    lefschetz: tuple | None = None
    dims: tuple | None = None
    dilatation: float | None = None

    def __post_init__(self):
        kind = _ALIASES.get(self.kind, self.kind)
        object.__setattr__(self, "kind", kind)
        if kind not in _KINDS:
            raise ValueError(f"unknown component kind {self.kind!r}")
        for key in ("dim", "count", "prongs"):
            v = getattr(self, key)
            if isinstance(v, (list, tuple)) and key != "prongs":
                v = tuple(_integer(x, f"{kind} {key} entry") for x in v)
            elif v is not None:
                v = _integer(v, f"{kind} {key}")
            object.__setattr__(self, key, v)
        if kind in (FIXED_A, FIXED_B, FIXED_C) and self.dim is None:
            raise ValueError(f"{kind} component needs a dim")
        if kind == FIXED_B and (self.prongs is None or self.prongs < 1):
            raise ValueError("fixed-b component needs prongs >= 1")
        if kind == FIXED_C and (self.prongs is None or self.prongs < 2):
            raise ValueError("fixed-c component needs prongs >= 2")
        if kind == PERIODIC:
            if not self.lefschetz:
                raise ValueError("periodic component needs its lefschetz numbers")
            object.__setattr__(self, "lefschetz", tuple(int(x) for x in self.lefschetz))
        if kind == PSEUDO_ANOSOV:
            if not self.dims:
                raise ValueError(
                    "pseudo-anosov component needs an iterate-dimension sequence"
                )
            object.__setattr__(self, "dims", tuple(int(x) for x in self.dims))
            if any(x < 0 for x in self.dims):
                raise ValueError("iterate dimensions must be nonnegative")

    def contribution(self, n: int) -> int:
        if n < 1:
            raise ValueError("n must be >= 1")
        if self.kind == FIXED_A:
            return _per_iterate(self.dim, n, "fixed-a dim")
        if self.kind == FIXED_B:
            d = _per_iterate(self.dim, n, "fixed-b dim")
            c = _per_iterate(self.count, n, "fixed-b count")
            return d + (self.prongs - 1) * c
        if self.kind == FIXED_C:
            d = _per_iterate(self.dim, n, "fixed-c dim")
            c = _per_iterate(self.count, n, "fixed-c count")
            return d + self.prongs * c
        if self.kind == PERIODIC:
            return _per_iterate(self.lefschetz, n, "periodic lefschetz")
        return _per_iterate(self.dims, n, "pseudo-anosov dims")

    def max_iterate(self) -> int | None:
        """Largest n with data, or None when constant in n."""
        lengths = [
            len(v)
            for v in (self.dim, self.count, self.lefschetz, self.dims)
            if isinstance(v, (list, tuple))
        ]
        return min(lengths) if lengths else None

    @classmethod
    def from_json(cls, data: dict) -> "ComponentSpec":
        return cls(
            kind=data["kind"],
            dim=data.get("dim"),
            prongs=data.get("prongs"),
            count=data.get("count", 1),
            lefschetz=data.get("lefschetz"),
            dims=data.get("dims"),
            dilatation=data.get("dilatation"),
        )

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        for key in ("dim", "prongs", "count", "lefschetz", "dims", "dilatation"):
            v = getattr(self, key)
            if v is not None and not (key == "count" and v == 1):
                out[key] = list(v) if isinstance(v, tuple) else v
        return out


@dataclass(frozen=True)
class ClassSpec:
    """A mapping class in standard form: the list of its pieces."""

    components: tuple[ComponentSpec, ...]
    genus: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("a class needs at least one component")

    def max_iterate(self) -> int | None:
        lengths = [c.max_iterate() for c in self.components if c.max_iterate() is not None]
        return min(lengths) if lengths else None

    def pa_components(self) -> list[ComponentSpec]:
        return [c for c in self.components if c.kind == PSEUDO_ANOSOV]

    @classmethod
    def from_json(cls, data: dict) -> "ClassSpec":
        return cls(
            components=tuple(ComponentSpec.from_json(c) for c in data["components"]),
            genus=data.get("genus"),
        )

    def to_json(self) -> dict:
        out = {"components": [c.to_json() for c in self.components]}
        if self.genus is not None:
            out["genus"] = self.genus
        return out


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
    if horizon >= 3:
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
        entropy["sequence_estimate"] = math.log(max(estimate, 1e-300))
    return GrowthReport(
        lower_bound=lower,
        upper_bound_spectral=upper,
        upper_bound_norm=upper,
        sequence_estimate=estimate,
        entropy_log=entropy,
        provenance=provenance,
        window=window,
    )


@dataclass(frozen=True)
class GraphTestResult:
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
