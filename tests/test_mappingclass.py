"""Assembling iterate dimensions of reducible classes from their pieces."""

import math
import random

import pytest

from floergrowth.mappingclass import (
    ClassSpec,
    ComponentSpec,
    assemble_dim,
    asymptotic_invariant,
    graph_manifold_test,
    periodic_zeta_for_class,
)

PHI = (1 + math.sqrt(5)) / 2
LAM = (3 + math.sqrt(5)) / 2  # largest eigenvalue of [[2,1],[1,1]]


def anosov_dims(n):
    """tr([[2,1],[1,1]]^n) - 2, by the trace recurrence t_n = 3 t_{n-1} - t_{n-2}."""
    t_prev, t_cur = 2, 3  # t_0, t_1
    for _ in range(n - 1):
        t_prev, t_cur = t_cur, 3 * t_cur - t_prev
    return t_cur - 2


def test_contribution_anchors():
    only_a = ClassSpec(components=(ComponentSpec(kind="fixed-a", dim=6),))
    assert assemble_dim(only_a, 1) == 6
    assert assemble_dim(only_a, 7) == 6

    periodic = ClassSpec(components=(ComponentSpec(kind="periodic", lefschetz=(4,)),))
    assert assemble_dim(periodic, 1) == 4

    mixed = ClassSpec(
        components=(
            ComponentSpec(kind="fixed-b", prongs=3, count=1, dim=2),
            ComponentSpec(kind="pseudo-anosov", dims=(5,)),
        )
    )
    assert assemble_dim(mixed, 1) == 9  # 2 + (3-1)*1 + 5

    with_c = ClassSpec(components=(ComponentSpec(kind="fixed-c", prongs=2, count=2, dim=1),))
    assert assemble_dim(with_c, 1) == 5  # 1 + 2*2


def test_assemble_additivity():
    rng = random.Random(179)
    for _ in range(40):
        parts = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.randrange(4)
            if roll == 0:
                parts.append(ComponentSpec(kind="fixed-a", dim=rng.randint(0, 9)))
            elif roll == 1:
                parts.append(
                    ComponentSpec(
                        kind="fixed-b",
                        prongs=rng.randint(1, 5),
                        count=rng.randint(1, 3),
                        dim=rng.randint(0, 9),
                    )
                )
            elif roll == 2:
                parts.append(
                    ComponentSpec(
                        kind="periodic",
                        lefschetz=tuple(rng.randint(-5, 5) for _ in range(6)),
                    )
                )
            else:
                parts.append(
                    ComponentSpec(
                        kind="pseudo-anosov",
                        dims=tuple(rng.randint(0, 20) for _ in range(6)),
                    )
                )
        cut = rng.randint(1, len(parts)) if len(parts) > 1 else None
        whole = ClassSpec(components=tuple(parts))
        n = rng.randint(1, 6)
        total = sum(c.contribution(n) for c in parts)
        assert assemble_dim(whole, n) == total
        if cut and cut < len(parts):
            left = ClassSpec(components=tuple(parts[:cut]))
            right = ClassSpec(components=tuple(parts[cut:]))
            assert assemble_dim(whole, n) == assemble_dim(left, n) + assemble_dim(right, n)


def test_two_summand_special_case():
    # fixed-curve part plus a periodic rest: dim + L(phi^n) at each iterate
    spec = ClassSpec(
        components=(
            ComponentSpec(kind="fixed-a", dim=3),
            ComponentSpec(kind="periodic", lefschetz=(2, -1, 4)),
        )
    )
    assert [assemble_dim(spec, n) for n in (1, 2, 3)] == [5, 2, 7]


def test_per_iterate_lists_and_missing_data():
    spec = ClassSpec(
        components=(ComponentSpec(kind="fixed-b", prongs=2, count=(1, 2), dim=(3, 3)),)
    )
    assert assemble_dim(spec, 1) == 4
    assert assemble_dim(spec, 2) == 5
    assert spec.max_iterate() == 2
    with pytest.raises(ValueError, match="missing"):
        assemble_dim(spec, 3)
    only_const = ClassSpec(components=(ComponentSpec(kind="fixed-a", dim=1),))
    assert only_const.max_iterate() is None


def test_asymptotic_no_pa_is_one():
    spec = ClassSpec(components=(ComponentSpec(kind="fixed-a", dim=6),))
    report = asymptotic_invariant(spec)
    assert report.lower_bound == 1.0
    assert report.upper_bound_spectral == 1.0
    assert report.entropy_log["lower_bound"] == 0.0
    assert bool(graph_manifold_test(spec))


def test_asymptotic_anosov_dims():
    dims = tuple(anosov_dims(n) for n in range(1, 31))
    pa = ComponentSpec(kind="pseudo-anosov", dims=dims, dilatation=LAM)
    spec = ClassSpec(components=(pa,))
    report = asymptotic_invariant(spec, n_max=30)
    assert report.lower_bound == report.upper_bound_spectral == LAM
    assert abs(report.sequence_estimate - LAM) / LAM < 0.02


def test_asymptotic_two_dilatations_takes_max():
    fib = ComponentSpec(
        kind="pseudo-anosov",
        dims=tuple(round(PHI**n) for n in range(1, 31)),
        dilatation=PHI,
    )
    big = ComponentSpec(
        kind="pseudo-anosov",
        dims=tuple(anosov_dims(n) for n in range(1, 31)),
        dilatation=LAM,
    )
    report = asymptotic_invariant(ClassSpec(components=(fib, big)), n_max=30)
    assert report.lower_bound == report.upper_bound_spectral == LAM


def test_asymptotic_inconsistent_data_rejected():
    lying = ComponentSpec(
        kind="pseudo-anosov",
        dims=tuple(anosov_dims(n) for n in range(1, 31)),
        dilatation=1.2,
    )
    with pytest.raises(ValueError, match="inconsistent"):
        asymptotic_invariant(ClassSpec(components=(lying,)), n_max=30)


def test_asymptotic_missing_dilatation_gives_open_upper():
    pa = ComponentSpec(kind="pseudo-anosov", dims=tuple(anosov_dims(n) for n in range(1, 13)))
    report = asymptotic_invariant(ClassSpec(components=(pa,)), n_max=12)
    assert report.lower_bound == 1.0
    assert math.isinf(report.upper_bound_spectral)
    assert report.sequence_estimate is not None


def test_asymptotic_invariant_under_non_pa_additions():
    pa = ComponentSpec(
        kind="pseudo-anosov",
        dims=tuple(anosov_dims(n) for n in range(1, 31)),
        dilatation=LAM,
    )
    bare = asymptotic_invariant(ClassSpec(components=(pa,)), n_max=30)
    padded_spec = ClassSpec(
        components=(
            pa,
            ComponentSpec(kind="fixed-a", dim=6),
            ComponentSpec(kind="periodic", lefschetz=tuple([3] * 30)),
        )
    )
    padded = asymptotic_invariant(padded_spec, n_max=30)
    assert padded.lower_bound == bare.lower_bound == LAM
    assert padded.upper_bound_spectral == bare.upper_bound_spectral == LAM
    assert abs(padded.sequence_estimate - bare.sequence_estimate) < 0.02 * LAM


def test_graph_manifold_test_notes():
    flat = ClassSpec(
        components=(
            ComponentSpec(kind="fixed-a", dim=2),
            ComponentSpec(kind="periodic", lefschetz=(1, 1)),
        )
    )
    verdict = graph_manifold_test(flat)
    assert verdict.is_graph_manifold is True
    assert any("no pseudo-Anosov" in note for note in verdict.notes)
    assert verdict.to_json()["is_graph_manifold"] is True

    lone = ClassSpec(
        components=(ComponentSpec(kind="pseudo-anosov", dims=(1, 5, 16), dilatation=LAM),)
    )
    verdict = graph_manifold_test(lone)
    assert verdict.is_graph_manifold is False
    assert not bool(verdict)
    assert any("interior hyperbolic of finite volume" in note for note in verdict.notes)

    mixed = ClassSpec(
        components=(
            ComponentSpec(kind="fixed-a", dim=2),
            ComponentSpec(kind="pseudo-anosov", dims=(1, 5, 16)),
        )
    )
    assert graph_manifold_test(mixed).is_graph_manifold is False


def test_periodic_zeta_for_class():
    genus2_identity = ClassSpec(components=(ComponentSpec(kind="fixed-a", dim=6),))
    z = periodic_zeta_for_class(genus2_identity, 1)
    assert z.factors == ((1, 6),)
    assert z.to_text() == "(1 - t)^(-6)"

    alternating = ClassSpec(
        components=(ComponentSpec(kind="pseudo-anosov", dims=(2, 4)),)
    )
    with pytest.raises(ValueError, match="pseudo-Anosov"):
        periodic_zeta_for_class(alternating, 2)

    swapper = ClassSpec(
        components=(ComponentSpec(kind="periodic", lefschetz=(2, 4)),)
    )
    z = periodic_zeta_for_class(swapper, 2)
    assert z.factors == ((1, 2), (2, 2))
    assert z.to_text() == "(1 - t)^(-2) * (1 - t^2)^(-1)"


def test_component_validation():
    with pytest.raises(ValueError, match="unknown component kind"):
        ComponentSpec(kind="twisty")
    with pytest.raises(ValueError, match="needs a dim"):
        ComponentSpec(kind="fixed-a")
    with pytest.raises(ValueError, match="prongs >= 1"):
        ComponentSpec(kind="fixed-b", dim=1, prongs=0)
    with pytest.raises(ValueError, match="prongs >= 2"):
        ComponentSpec(kind="fixed-c", dim=1, prongs=1)
    with pytest.raises(ValueError, match="lefschetz"):
        ComponentSpec(kind="periodic")
    with pytest.raises(ValueError, match="iterate-dimension"):
        ComponentSpec(kind="pseudo-anosov")
    with pytest.raises(ValueError, match="nonnegative"):
        ComponentSpec(kind="pseudo-anosov", dims=(1, -2))
    with pytest.raises(ValueError, match="at least one component"):
        ClassSpec(components=())
    for bad in (-1, (2, -1)):
        with pytest.raises(ValueError, match="fixed-a dim must be nonnegative"):
            ComponentSpec(kind="fixed-a", dim=bad)
        with pytest.raises(ValueError, match="fixed-c count must be nonnegative"):
            ComponentSpec(kind="fixed-c", dim=1, prongs=2, count=bad)
    with pytest.raises(ValueError, match="fixed-a dim list is empty"):
        ComponentSpec(kind="fixed-a", dim=())
    with pytest.raises(ValueError, match="fixed-b count list is empty"):
        ComponentSpec(kind="fixed-b", dim=1, prongs=1, count=[])
    with pytest.raises(ValueError, match="periodic lefschetz list is empty"):
        ComponentSpec(kind="periodic", lefschetz=[])
    for bad in (math.inf, math.nan, 0.5, "x", True, [LAM]):
        with pytest.raises(ValueError, match="dilatation must be a finite number >= 1"):
            ComponentSpec(kind="pseudo-anosov", dims=(1, 5, 16), dilatation=bad)


def test_unread_fields_are_ignored():
    """A field its kind does not read is neither checked nor counted toward
    the data horizon; lefschetz numbers stay signed."""
    piece = ComponentSpec(kind="fixed-a", dim=2, count=-3, prongs="x", lefschetz=[1, "x"], dims=(1, 2))
    assert piece.max_iterate() is None
    assert assemble_dim(ClassSpec(components=(piece,)), 3) == 2
    fixed_b = ComponentSpec(kind="fixed-b", dim=(1, 1, 1), prongs=3, count=(0, 1), dims=(1,))
    assert fixed_b.max_iterate() == 2
    assert ComponentSpec(kind="periodic", lefschetz=(-1, 3), dim=-1).max_iterate() == 2


def test_kind_aliases():
    """Each kind has one spelling; the old aliases are unknown kinds."""
    for alias in ("pseudoAnosov", "pA"):
        with pytest.raises(ValueError, match="unknown component kind"):
            ComponentSpec(kind=alias, dims=(1,))


def test_json_roundtrip():
    """The JSON form reads back as the class built directly; an unknown key
    such as genus is ignored."""
    spec = ClassSpec(
        components=(
            ComponentSpec(kind="fixed-b", prongs=3, count=2, dim=1),
            ComponentSpec(kind="periodic", lefschetz=(4, -1)),
            ComponentSpec(kind="pseudo-anosov", dims=(1, 5, 16), dilatation=LAM),
        )
    )
    data = {
        "genus": 2,
        "components": [
            {"kind": "fixed-b", "prongs": 3, "count": 2, "dim": 1},
            {"kind": "periodic", "lefschetz": [4, -1]},
            {"kind": "pseudo-anosov", "dims": [1, 5, 16], "dilatation": LAM},
        ],
    }
    assert ClassSpec.from_json(data) == spec


def test_component_from_json_defaults_and_unknown_keys():
    """An absent field takes its constructor default (count 1), a key that is
    not a field is ignored, and a missing kind is named."""
    got = ComponentSpec.from_json({"kind": "fixed-c", "prongs": 2, "dim": 3, "genus": 2})
    assert got == ComponentSpec(kind="fixed-c", prongs=2, dim=3) and got.count == 1
    with pytest.raises(KeyError, match="kind"):
        ComponentSpec.from_json({"dim": 3})
