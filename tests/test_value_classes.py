"""The package's value classes: constructor fields, repr, ==, hash,
immutability, copy and pickle, and a CLI import that stays free of
``dataclasses`` and ``logging``."""

import copy
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from floergrowth import cli
from floergrowth.foxcalc import RingElem, RingMatrix
from floergrowth.freegroup import Endomorphism, Word
from floergrowth.groupring import HElem, NormInterval
from floergrowth.growth import GrowthEstimate, GrowthReport
from floergrowth.mappingclass import ClassSpec, ComponentSpec, GraphTestResult
from floergrowth.ratfunc import RationalFunction
from floergrowth.reptheory import Representation, abelian_quotient_rep
from floergrowth.zetafns import PowerSeries, RadicalRational

GOLDEN = ("a b", "a")

# name -> builder; each call builds a new instance equal to the last
BUILDERS = {
    "Word": lambda: Word((1, -2, 2, 3)),
    "Endomorphism": lambda: Endomorphism.from_images_text(GOLDEN),
    "RingMatrix": lambda: RingMatrix(((RingElem.one(), RingElem.zero()),)),
    "HElem": lambda: HElem(2, RingElem.one()),
    "NormInterval": lambda: NormInterval(6, 6, True),
    "GrowthEstimate": lambda: GrowthEstimate(1.5, 3, 4),
    "GrowthReport": lambda: GrowthReport(1.0, 2.0, 3.0, None, {"a": 0.0}, {"a": "b"}, (1, 2)),
    "RationalFunction": lambda: RationalFunction((1, Fraction(-1, 2)), (1, 3)),
    "Representation": lambda: abelian_quotient_rep(Endomorphism.from_images_text(GOLDEN), 2),
    "PowerSeries": lambda: PowerSeries((1, 2), 3),
    "RadicalRational": lambda: RadicalRational(2, ((1, 2), (2, 1))),
    "ComponentSpec": lambda: ComponentSpec("fixed-b", dim=1, prongs=2, count=[1, 2]),
    "ClassSpec": lambda: ClassSpec([ComponentSpec("fixed-a", dim=2)]),
    "GraphTestResult": lambda: GraphTestResult(True, ("no pseudo-Anosov piece",)),
}
UNHASHABLE = {"GrowthReport"}  # its dict fields


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_value_class_contract(name):
    a, b = BUILDERS[name](), BUILDERS[name]()
    cls = type(a)
    assert cls.__name__ == name
    assert a is not b and a == b and not a != b
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)
    fields = cls._fields
    assert repr(a).startswith(f"{name}({fields[0]}=")
    assert all(f" {key}=" in repr(a) for key in fields[1:])
    for key in fields:
        with pytest.raises(AttributeError):
            setattr(a, key, None)
        with pytest.raises(AttributeError):
            delattr(a, key)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    assert a == b
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a and repr(twin) == repr(a)


def test_reprs():
    assert repr(Word((1, -2))) == "Word(letters=(1, -2))"
    assert repr(Word()) == "Word(letters=())"
    assert repr(Endomorphism.from_images_text(GOLDEN)) == (
        "Endomorphism(rank=2, images=(Word(letters=(1, 2)), Word(letters=(1,))))"
    )
    assert repr(NormInterval(6, 6, True)) == "NormInterval(lower=6, upper=6, certified=True)"
    assert repr(GrowthEstimate(1.5, 3, 4)) == "GrowthEstimate(value=1.5, window_start=3, n_terms=4)"
    assert repr(PowerSeries((1,), 1)) == (
        "PowerSeries(coeffs=(Fraction(1, 1), Fraction(0, 1)), order=1)"
    )


def test_constructors_still_check_their_input():
    assert Word((1, 2, -2, -1, 3)).letters == (3,)
    with pytest.raises(ValueError):
        Word((0,))
    with pytest.raises(ValueError):
        Endomorphism(2, (Word((1,)),))
    with pytest.raises(ValueError):
        RingMatrix(((RingElem.one(),), ()))
    with pytest.raises(ValueError):
        RationalFunction((2,), (1,))
    with pytest.raises(ValueError):
        Representation(1, "no-such-kind", ((0,),), (0,))
    with pytest.raises(ValueError):
        ClassSpec([])
    with pytest.raises(ValueError):
        ComponentSpec("fixed-b", dim=1)


def test_different_values_differ():
    assert Word((1,)) != Word((2,))
    assert Word((1,)) != (1,)  # a word is not its letter tuple
    assert Endomorphism.from_images_text(GOLDEN) != Endomorphism.from_images_text(["a", "b"])
    assert HElem(1, RingElem.one()) != HElem(2, RingElem.one())
    assert PowerSeries((1, 2), 3) != PowerSeries((1, 2), 4)


def test_endomorphism_compares_rank_and_images_only():
    f, g = Endomorphism.from_images_text(GOLDEN), Endomorphism.from_images_text(GOLDEN)
    object.__setattr__(g, "_table", {})
    assert f == g and hash(f) == hash(g)
    assert "_table" not in repr(f)


def test_rational_function_ignores_cancelled():
    plain = RationalFunction((1, 2), (1, 3))
    noted = RationalFunction((1, 2), (1, 3), cancelled=((0.5, 0.5),))
    assert plain == noted and hash(plain) == hash(noted)
    assert repr(noted).endswith("cancelled=((0.5, 0.5),))")
    assert RationalFunction((1,), (1,)).cancelled == ()


def test_representation_ignores_its_tables():
    a, b = BUILDERS["Representation"](), BUILDERS["Representation"]()
    object.__setattr__(b, "_letters", {})
    object.__setattr__(b, "_eye", ())
    assert a == b and hash(a) == hash(b)
    assert "_letters" not in repr(a) and "_eye" not in repr(a)


def test_component_spec_fields_follow_the_constructor():
    """from_json passes every field after kind by name."""
    data = {"kind": "fixed-c", "dim": [1, 2], "prongs": 2, "count": 3, "genus": 5}
    assert ComponentSpec.from_json(data) == ComponentSpec("fixed-c", [1, 2], 2, 3)
    assert ComponentSpec._fields == (
        "kind", "dim", "prongs", "count", "lefschetz", "dims", "dilatation",
    )


def test_cli_import_loads_no_dataclasses():
    """Each CLI call is a fresh process, so its import stays light: no
    ``dataclasses``, which would pull in ``inspect`` and ``ast``, no
    ``logging``, which only a ``--verbose`` run loads, and no ``string``,
    whose one constant the word parser spells out."""
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys, floergrowth.cli; "
        "print(sorted({'dataclasses', 'inspect', 'logging', 'string'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
