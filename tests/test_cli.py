"""End-to-end runs of the command-line front end via run(argv)."""

import hashlib
import json
import logging
import math
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from floergrowth import cli, growth, ratfunc, torus
from floergrowth.cli import EXIT_CROSSCHECK, EXIT_INPUT, EXIT_OK, EXIT_UNCERTIFIED, run

PHI = (1 + math.sqrt(5)) / 2
README = Path(__file__).resolve().parent.parent / "README.md"
DOCS = README.parent / "docs" / "input-formats.md"


def _not_json(constant):
    raise AssertionError(f"{constant} is not valid JSON (RFC 8259)")


def payload_of(capsys, argv, expect=EXIT_OK):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == expect, f"argv={argv} stderr={captured.err!r}"
    return json.loads(captured.out, parse_constant=_not_json)


def test_fox_golden(capsys):
    payload = payload_of(capsys, ["fox", "--images", "a b, a"])
    assert payload["rank"] == 2
    assert payload["images"] == ["a b", "a"]
    assert payload["jacobian"] == [["1", "a"], ["1", "0"]]
    assert payload["abelianization"] == [[1, 1], [1, 0]]
    assert sorted(payload) == ["abelianization", "images", "jacobian", "rank"]


def test_trace_golden_intervals(capsys):
    payload = payload_of(capsys, ["trace", "--images", "a b, a", "--n", "4"])
    assert payload["arithmetic"] == "exact"
    rows = payload["rows"]
    assert [r["n"] for r in rows] == [1, 2, 3, 4]
    assert [r["norm_lower"] for r in rows] == [0, 2, 3, 6]
    assert [r["norm_upper"] for r in rows] == [0, 2, 3, 6]
    assert all(r["certification"] == "certified-interval" for r in rows)
    assert rows[0]["trace"] == "0"


def test_trace_strict_uncertified(capsys):
    """a -> b, b -> a b has trace 1 - a at n = 1; the two terms are conjugate
    in the mapping torus, which a search of depth 0 cannot show."""
    swap_twist = ["trace", "--images", "b, a b", "--n", "1"]

    shallow = [*swap_twist, "--depth", "0", "--strict"]
    payload = payload_of(capsys, shallow, expect=EXIT_UNCERTIFIED)
    assert payload["strict_failure"] == "some interval is not certified"
    row = payload["rows"][0]
    assert (row["norm_lower"], row["norm_upper"]) == (0, 2)
    assert row["certification"] == "uncertified-interval"

    deep = [*swap_twist, "--depth", "8", "--strict"]
    payload = payload_of(capsys, deep)
    row = payload["rows"][0]
    assert (row["norm_lower"], row["norm_upper"]) == (0, 0)
    assert row["certification"] == "certified-interval"


def test_zeta_twisted_mod3(capsys):
    payload = payload_of(
        capsys, ["zeta-twisted", "--images", "a a", "--modulus", "3", "--order", "8"]
    )
    assert payload["certification"] == "exact"
    assert payload["representation"] == {"dim": 3, "kind": "permutation"}
    zeta = payload["zeta"]
    assert zeta["numerator"] == ["1", "-2"]
    assert zeta["denominator"] == ["1", "-1"]
    assert zeta["exact"] is True
    assert zeta["min_root_modulus"] == 0.5
    assert payload["series"] == ["1"] + ["-1"] * 8
    assert payload["lefschetz_check"] == [str(1 - 2**n) for n in range(1, 9)]


def test_zeta_twisted_cat_mod5_series_identity(capsys):
    """cat at --modulus 5 (blocks of 25 and 50): the log-derivative of the
    exact zeta series equals the traces of powers, computed independently."""
    payload = payload_of(
        capsys, ["zeta-twisted", "--images", "a a b, a b", "--modulus", "5", "--order", "8"]
    )
    series = [Fraction(c) for c in payload["series"]]
    logd = []
    for n in range(1, 9):
        logd.append(n * series[n] - sum(logd[j - 1] * series[n - j] for j in range(1, n)))
    assert [str(c) for c in logd] == payload["lefschetz_check"]


@pytest.mark.parametrize("command", ["zeta-twisted", "bounds"])
def test_twisted_block_cap(capsys, monkeypatch, command):
    """cat at --modulus 12 needs blocks of 2 x 144 = 288; it is refused before
    the representation is built."""
    def not_expected(*args):
        raise AssertionError("the representation was built")

    monkeypatch.setattr(cli, "abelian_quotient_rep", not_expected)
    assert run([command, "--images", "a a b, a b", "--modulus", "12"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "twisted block size 288" in err and "exceeds the limit" in err


def test_cross_check_failures_exit_4(capsys, monkeypatch):
    def assert_cross_check(argv, message):
        assert run(argv) == EXIT_CROSSCHECK
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err, captured.err
        assert captured.out == ""

    with monkeypatch.context() as m:
        m.setattr(growth, "_block_power_iteration", lambda block: 0.0)
        assert_cross_check(["bounds", "--images", "a b, a"], "spectral radius cross-check failed")

    with monkeypatch.context() as m:
        # golden's zeta lower bound is phi, above this spectral upper
        m.setattr(growth, "upper_bound_spectral", lambda f: 1.0)
        assert_cross_check(["bounds", "--images", "a b, a"], "bound sandwich violated")

    with monkeypatch.context() as m:
        # A - I = [[1, 1], [1, 0]] has |det| 1, not the product 6
        m.setattr(torus, "smith_normal_form", lambda mat: ((2, 3), None, None))
        assert_cross_check(
            ["torus", "--matrix", "2,1,1,1", "--n", "1"],
            "Smith diagonal product disagrees with the determinant",
        )

    monkeypatch.setattr(ratfunc, "sparse_mat_mul", lambda rows, b: [[1] * len(b) for _ in b])
    assert_cross_check(
        ["zeta-twisted", "--images", "a a b, a b", "--modulus", "2"], "not divisible"
    )


def test_zeta_twisted_unitary_strict(capsys, tmp_path):
    rep = tmp_path / "rep.json"
    rep.write_text(
        json.dumps(
            {"dim": 1, "kind": "unitary", "a": [[[[1.0, 0.0]]]], "z": [[[-1.0, 0.0]]]}
        )
    )
    base = ["zeta-twisted", "--images", "a a", "--rep", str(rep)]
    payload = payload_of(capsys, base)
    assert payload["certification"].startswith("float(")
    num = payload["zeta"]["numerator"]
    assert len(num) == 2 and abs(num[1][0] - 2.0) < 1e-12

    payload = payload_of(capsys, base + ["--strict"], expect=EXIT_UNCERTIFIED)
    assert "strict_failure" in payload


def test_bounds_golden(capsys):
    payload = payload_of(capsys, ["bounds", "--images", "a b, a"])
    assert abs(payload["lower_bound"] - PHI) < 1e-9
    assert abs(payload["upper_bound_spectral"] - PHI) < 1e-9
    assert payload["upper_bound_norm"] == 3.0
    assert abs(payload["sequence_estimate"] - 17 ** (1 / 6)) < 1e-9
    assert payload["window"] == [4, 6]
    cert = payload["certification"]
    assert cert["lower_bound"] == "exact"
    assert cert["upper_bound_norm"] == "exact"


def docs_map(tmp_path) -> Path:
    """The endomorphism example of docs/input-formats.md, written to a file."""
    section = DOCS.read_text().split("## Endomorphism JSON")[1]
    endo = tmp_path / "endo.json"
    endo.write_text(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    return endo


def test_growth_command(capsys):
    payload = payload_of(capsys, ["growth", "--seq", "2,4,8,16,32,64"])
    assert payload["estimate"] == 2.0
    assert payload["window_start"] == 4
    assert payload["n_terms"] == 6
    for seq in ("1,2,inf", "1,2,nan", "1,-inf,4"):
        assert run(["growth", "--seq", seq]) == EXIT_INPUT
        assert "must be finite" in capsys.readouterr().err


def test_periodic_zeta_command(capsys):
    payload = payload_of(
        capsys, ["periodic-zeta", "--period", "2", "--dims", "1:2,2:4", "--order", "4"]
    )
    assert payload["certification"] == "exact"
    assert payload["text"] == "(1 - t)^(-2) * (1 - t^2)^(-1)"
    assert payload["factors"] == [
        {"base_power": 1, "dim_exponent": 2, "root_degree": 1},
        {"base_power": 2, "dim_exponent": 2, "root_degree": 2},
    ]
    assert payload["expansion"] == ["1", "2", "4", "6", "9"]


def test_torus_command(capsys):
    payload = payload_of(capsys, ["torus", "--matrix", "2,1,1,1", "--n", "3"])
    assert payload["hyperbolic"] is True
    assert payload["rows"] == [
        {"n": 1, "L": -1, "N": 1},
        {"n": 2, "L": -5, "N": 5},
        {"n": 3, "L": -16, "N": 16},
    ]
    assert payload["symplectic_zeta"] == "(1 - 2 t + t^2) / (1 - 3 t + t^2)"
    assert payload["weil_zeta"] == "(1 - 3 t + t^2) / (1 - 2 t + t^2)"


def test_torus_non_hyperbolic(capsys):
    payload = payload_of(capsys, ["torus", "--matrix", "1,1,0,1", "--n", "2"])
    assert payload["hyperbolic"] is False
    assert "note" in payload
    assert "symplectic_zeta" not in payload
    assert all("N" not in row for row in payload["rows"])


def test_assemble_command(capsys, tmp_path):
    spec = tmp_path / "class.json"
    spec.write_text(
        json.dumps(
            {
                "components": [
                    {"kind": "fixed-a", "dim": 2},
                    {"kind": "periodic", "lefschetz": [1, 1, 4, 5]},
                ],
                "genus": 2,
            }
        )
    )
    payload = payload_of(
        capsys,
        ["assemble", "--class", str(spec), "--n", "3", "--report", "--graph-test"],
    )
    assert payload["components"] == 2
    assert payload["dims"] == [
        {"n": 1, "dim": 3},
        {"n": 2, "dim": 3},
        {"n": 3, "dim": 6},
    ]
    assert payload["report"]["lower_bound"] == 1.0
    assert payload["graph_test"]["is_graph_manifold"] is True

    # default horizon follows the stored data
    payload = payload_of(capsys, ["assemble", "--class", str(spec)])
    assert [row["n"] for row in payload["dims"]] == [1, 2, 3, 4]

    assert run(["assemble", "--class", str(spec), "--n", "5"]) == EXIT_INPUT
    assert "stops at iterate 4" in capsys.readouterr().err


def test_assemble_report_without_dilatation_has_null_uppers(capsys, tmp_path):
    """With no dilatation the uppers are unbounded; they render as null, not
    as the invalid JSON token Infinity."""
    spec = tmp_path / "class.json"
    spec.write_text(json.dumps({"components": [{"kind": "pseudo-anosov", "dims": [1, 3, 4, 7]}]}))
    report = payload_of(capsys, ["assemble", "--class", str(spec), "--report"])["report"]
    assert report["lower_bound"] == 1.0
    assert report["upper_bound_spectral"] is None and report["upper_bound_norm"] is None
    assert "upper_bound" not in report["entropy_log"]


def test_assemble_horizon_ignores_unread_lists(capsys, tmp_path):
    """Only the lists a kind reads set the data horizon: a dims list on a
    fixed-a piece is ignored like an unknown key."""
    spec = tmp_path / "class.json"
    spec.write_text(json.dumps({"components": [{"kind": "fixed-a", "dim": 2, "dims": [1, 2]}]}))
    payload = payload_of(capsys, ["assemble", "--class", str(spec), "--n", "3"])
    assert payload["dims"] == [{"n": n, "dim": 2} for n in (1, 2, 3)]


def test_docs_class_example_assembles(capsys, tmp_path):
    """The class example in docs/input-formats.md passes assemble --report."""
    section = DOCS.read_text().split("## Class description JSON")[1]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    spec = tmp_path / "class.json"
    spec.write_text(example)
    payload = payload_of(capsys, ["assemble", "--class", str(spec), "--report"])
    assert payload["components"] == 5
    assert payload["report"]["lower_bound"] == pytest.approx(2 + math.sqrt(3))


def test_series_command(capsys):
    payload = payload_of(capsys, ["series", "--dims", "1,1,2,3,5,8"])
    assert payload["order"] == 6
    assert len(payload["coefficients"]) == 7
    assert payload["coefficients"][0] == "1"
    assert isinstance(payload["radius_estimate"], float)

    assert run(["series", "--dims", "1,2", "--order", "5"]) == EXIT_INPUT
    capsys.readouterr()

    # an explicit --order 0 is order 0, not the number of dims
    payload = payload_of(capsys, ["series", "--dims", "1,2,3", "--order", "0"])
    assert payload["order"] == 0
    assert payload["coefficients"] == ["1"]


def test_series_inferred_order_is_capped(capsys, monkeypatch):
    """Without --order the order is the number of dims; past MAX_ORDER that
    exits 2, naming the count and the cap, before any series work."""
    dims = ",".join(["1"] * 300)
    payload = payload_of(capsys, ["series", "--dims", dims, "--order", str(cli.MAX_ORDER)])
    assert len(payload["coefficients"]) == cli.MAX_ORDER + 1

    called = []
    monkeypatch.setattr(cli, "symplectic_zeta_series", lambda *a: called.append(a))
    assert run(["series", "--dims", dims]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "--dims has 300 entries" in err and f"cap of {cli.MAX_ORDER}" in err, err
    assert not called


def test_limit_validation(capsys, tmp_path):
    spec = tmp_path / "class.json"
    spec.write_text(json.dumps({"components": [{"kind": "fixed-a", "dim": 2}]}))
    cases = [
        (["trace", "--images", "a", "--n", "65"], "--n must be between 1 and 64"),
        (["zeta-twisted", "--images", "a", "--order", "129"], "--order must be between"),
        (["trace", "--images", "a", "--depth", "17"], "--depth must be between"),
        (["periodic-zeta", "--period", "0", "--dims", "1:1"], "--period must be between"),
        (["trace", "--images", "a", "--n", "0"], "--n must be between 1 and 64"),
        (["trace", "--images", "a", "--n", "-1"], "--n must be between 1 and 64"),
        (["torus", "--matrix", "2,1,1,1", "--n", "0"], "--n must be between 1 and 64"),
        (["bounds", "--images", "a b, a", "--n", "0"], "--n must be between 1 and 64"),
        (["assemble", "--class", str(spec), "--n", "0"], "--n must be between 1 and 64"),
    ]
    for argv, message in cases:
        assert run(argv) == EXIT_INPUT, argv
        assert message in capsys.readouterr().err, argv
    # without --n, assemble still takes its horizon from the data
    payload = payload_of(capsys, ["assemble", "--class", str(spec)])
    assert [row["n"] for row in payload["dims"]] == [1, 2, 3, 4, 5, 6]


def test_bounds_rejects_short_sequence_up_front(capsys, monkeypatch):
    """bounds --n 1 or 2 leaves the sequence estimate too few terms; it
    exits 2 naming --n before any zeta, spectral or interval work."""

    def refuse(*args, **kwargs):
        raise AssertionError("full_report ran")

    monkeypatch.setattr(cli, "full_report", refuse)
    for n in ("1", "2"):
        assert run(["bounds", "--images", "a b, a", "--n", n]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert "--n of at least 3" in err, err


def test_torus_negative_first_entry(capsys):
    """A value starting with '-' reads as an option unless it is attached with
    '=' or contains a space; both documented forms give the same payload."""
    attached = payload_of(capsys, ["torus", "--matrix=-2,1,1,-1", "--n", "4"])
    spaced = payload_of(capsys, ["torus", "--matrix", "-2 1 1 -1", "--n", "4"])
    assert attached == spaced
    assert attached["matrix"] == [[-2, 1], [1, -1]]
    assert [row["n"] for row in attached["rows"]] == [1, 2, 3, 4]


def test_bad_input_reporting(capsys, tmp_path):
    assert run(["fox"]) == EXIT_INPUT
    assert "provide --map FILE or --images" in capsys.readouterr().err

    assert run(["trace", "--map", str(tmp_path / "missing.json")]) == EXIT_INPUT
    assert "no such file" in capsys.readouterr().err

    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run(["fox", "--map", str(broken)]) == EXIT_INPUT
    assert "invalid JSON" in capsys.readouterr().err

    assert run(["torus", "--matrix", "1,2,3"]) == EXIT_INPUT
    assert "four integers" in capsys.readouterr().err

    assert run(["no-such-command"]) == EXIT_INPUT
    capsys.readouterr()

    assert run(["fox", "--images", "a q"]) == EXIT_INPUT
    capsys.readouterr()

    # the rose chain is the whole complex: a map file that still asks for
    # extra chain matrices is refused, not read with the field dropped
    retired = tmp_path / "retired.json"
    retired.write_text(json.dumps({"rank": 2, "images": ["a b", "a"], "extra_matrices": [[["1"]]]}))
    for argv in (["fox"], ["trace", "--n", "2"], ["zeta-twisted", "--modulus", "2"], ["bounds"]):
        assert run([*argv, "--map", str(retired)]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert str(retired) in err and "'extra_matrices'" in err, err

    # --modulus 0 is refused, not read as "no modulus"; a negative modulus
    # gets the same message, not the block-size check's
    for command in ("zeta-twisted", "bounds"):
        for m in ("0", "-20"):
            assert run([command, "--images", "a b, a", "--modulus", m]) == EXIT_INPUT
            err = capsys.readouterr().err
            assert "modulus must be >= 2" in err and "block size" not in err, err

    # a huge exponent is refused before the word is expanded
    for argv in (["trace", "--n", "1"], ["fox"]):
        assert run([*argv, "--images", "a^1000000000000000000, b"]) == EXIT_INPUT
        assert "longer than 1000000 letters" in capsys.readouterr().err

    # two inputs for one role are refused, not resolved silently
    endo = tmp_path / "endo.json"
    endo.write_text(json.dumps({"rank": 2, "images": ["a a b", "a b"]}))
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"dim": 1, "kind": "permutation", "a": [[[1]], [[1]]], "z": [[1]]}))
    spec = tmp_path / "class.json"
    spec.write_text(json.dumps({"components": [{"kind": "fixed-a", "dim": 2}]}))
    conflicts = [
        (["trace", "--images", "a b, a", "--map", str(endo)], "--map", "--images"),
        (["zeta-twisted", "--images", "a b, a", "--rep", str(rep), "--modulus", "2"], "--modulus", "--rep"),
        (["periodic-zeta", "--period", "2", "--class", str(spec), "--dims", "1:1,2:1"], "--dims", "--class"),
    ]
    for argv, second, first in conflicts:
        assert run(argv) == EXIT_INPUT, argv
        err = capsys.readouterr().err
        assert f"argument {second}: not allowed with argument {first}" in err, err

    # malformed numbers name their option; neither periodic input is refused
    cases = [
        (["series", "--dims", "1,2.5,3"], "--dims: expected comma-separated integers"),
        (["growth", "--seq", "1,x"], "--seq: expected numbers"),
        # too short for the radius proxy, and long enough for it
        (["series", "--dims=-1,2"], "--dims: entries must be nonnegative"),
        (["series", "--dims=-1,2,3"], "--dims: entries must be nonnegative"),
        (["series", "--dims", ","], "--dims is empty"),
        (["periodic-zeta", "--period", "2"], "provide --dims 'd:value,...' or --class FILE"),
        (["periodic-zeta", "--period", "2", "--dims", "1:x,2:3"], "--dims entries look like 'd:value', got '1:x'"),
        (["periodic-zeta", "--period", "2", "--dims", "1:2,1:3,2:4"], "--dims gives divisor 1 twice"),
    ]
    # a coefficient past Python's digit limit for printing an integer names
    # the option and its power of t, not the interpreter's setting
    limit = sys.get_int_max_str_digits()
    huge = ",".join(["1" + "0" * 300] * 128)
    cases += [
        (["series", "--dims", huge, "--order", "128"], "--dims: the coefficient of t^15 has more than"),
        (["periodic-zeta", "--period", "1", "--dims", "1:1" + "0" * 4000, "--order", "4"],
         f"--dims: the coefficient of t^2 has more than {limit} digits"),
    ]
    for argv, message in cases:
        assert run(argv) == EXIT_INPUT, argv
        err = capsys.readouterr().err
        assert message in err, err

    # any other integer of the payload past the limit is bad input too, with
    # nothing written to stdout (here, the sum of two dims of 4300 digits)
    wide = tmp_path / "wide.json"
    nines = "9" * limit
    wide.write_text(f'{{"components": [{{"kind": "fixed-a", "dim": {nines}}}, {{"kind": "fixed-a", "dim": {nines}}}]}}')
    for argv in (["assemble"], ["--text", "assemble"]):
        assert run([*argv, "--class", str(wide), "--n", "1"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"the result holds an integer of more than {limit} digits" in captured.err
    # and so is a file holding one
    wide.write_text(f'{{"components": [{{"kind": "fixed-a", "dim": 1{nines}}}]}}')
    assert run(["assemble", "--class", str(wide)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert f"{wide}: invalid JSON" in err and "Traceback" not in err, err


def test_bad_entries_are_named_not_echoed(capsys):
    """A refused list entry is named by its position, cut when long, and an
    integer past Python's digit limit is said to be; the option value is
    never echoed whole."""
    limit = sys.get_int_max_str_digits()
    long_int = "7" * (limit + 701)
    cases = [
        (["series", "--dims", f"1,{long_int},3"],
         f"--dims: expected comma-separated integers, entry 2 has {limit + 701} digits, "
         f"above Python's limit of {limit}"),
        (["series", "--dims", "1 2 2.5"], "--dims: expected comma-separated integers, got '2.5' (entry 3)"),
        (["growth", "--seq", "1," + "x" * 500], "--seq: expected numbers, got 'xxxxxxxxxxxxxxxxxxxx'... (500 characters) (entry 2)"),
        (["torus", "--matrix", f"1,2,3,-{long_int}"], f"--matrix: expected comma-separated integers, entry 4 has {limit + 701} digits"),
        (["series", "--dims", "1,2,-" + "5" * limit], f"--dims: entries must be nonnegative, got '-5555555555555555555'... ({limit + 1} characters) (entry 3)"),
        (["periodic-zeta", "--period", "2", "--dims", f"1:1,2:{long_int}"],
         f"--dims entries look like 'd:value', entry 2 has {limit + 701} digits"),
        (["periodic-zeta", "--period", "2", "--dims", "1:1,2:" + "y" * 300],
         "--dims entries look like 'd:value', got '2:yyyyyyyyyyyyyyyyyy'... (302 characters) (entry 2)"),
    ]
    for argv, message in cases:
        assert run(argv) == EXIT_INPUT, argv
        err = capsys.readouterr().err
        assert message in err and len(err) < 200, err


def test_one_spelling_per_option(capsys, tmp_path):
    """Old aliases and option prefixes are unrecognized arguments (exit 2);
    the one spelling of each option works."""
    endo = tmp_path / "endo.json"
    endo.write_text(json.dumps({"rank": 2, "images": ["a b", "a"]}))
    spec = tmp_path / "class.json"
    spec.write_text(json.dumps({"components": [{"kind": "fixed-a", "dim": 2}]}))
    rejected = [
        ["fox", "--endo", str(endo)],
        ["assemble", "--class", str(spec), "--spec", str(spec)],
        ["assemble", "--class", str(spec), "--iterates", "3"],
        ["zeta-twisted", "--images", "a b, a", "--mod", "2"],
        ["trace", "--images", "a b, a", "--no-int"],
    ]
    for argv in rejected:
        assert run(argv) == EXIT_INPUT, argv
        assert "unrecognized arguments" in capsys.readouterr().err, argv
    assert run(["assemble", "--spec", str(spec)]) == EXIT_INPUT
    assert "--class" in capsys.readouterr().err
    assert payload_of(capsys, ["fox", "--map", str(endo)])["rank"] == 2
    dims = payload_of(capsys, ["assemble", "--class", str(spec), "--n", "2"])["dims"]
    assert dims == [{"n": 1, "dim": 2}, {"n": 2, "dim": 2}]


def test_integers_past_the_float_range_exit_2(capsys, tmp_path):
    """The growth proxy names a term too large for a float instead of
    ending in an OverflowError traceback."""
    huge = 10**400
    assert run(["series", "--dims", f"1,2,{huge}"]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert "term 3 is too large for a float" in err and "Traceback" not in err
    spec = tmp_path / "class.json"
    spec.write_text(json.dumps({"components": [{"kind": "pseudo-anosov", "dims": [1, 2, huge]}]}))
    assert run(["assemble", "--class", str(spec), "--report"]) == EXIT_INPUT
    assert "term 3 is too large for a float" in capsys.readouterr().err


def test_integers_past_the_float_range_outside_the_window(capsys, tmp_path):
    """The growth proxy reads only the tail window, so a term before it may
    be past the float range."""
    huge = 10**400
    payload = payload_of(capsys, ["series", "--dims", f"{huge},1,1"])
    assert payload["radius_estimate"] == 1.0
    spec = tmp_path / "class.json"
    spec.write_text(json.dumps({"components": [{"kind": "pseudo-anosov", "dims": [huge, 1, 1]}]}))
    payload = payload_of(capsys, ["assemble", "--class", str(spec), "--report"])
    assert payload["dims"][0] == {"n": 1, "dim": huge}
    assert payload["report"]["sequence_estimate"] == 1.0
    assert payload["report"]["window"] == [2, 3]


def documented_commands():
    """Each `floergrowth ...` line of the sh blocks in the README and the
    input-format docs, as an argument list without the program name."""
    for path in (README, DOCS):
        for block in re.findall(r"```sh\n(.*?)```", path.read_text(), re.S):
            for line in block.splitlines():
                words = shlex.split(line.removeprefix("$ "))
                if words[:1] == ["floergrowth"]:
                    yield words[1:]


def test_documented_commands_parse():
    commands = list(documented_commands())
    assert len(commands) >= 6
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_rep_file_named_in_rank_and_intertwining_errors(capsys, tmp_path):
    short = tmp_path / "short.json"
    short.write_text(json.dumps({"dim": 1, "kind": "permutation", "a": [[[1]]], "z": [[1]]}))
    # golden (a -> ab, b -> a) with a swapping two points and b, z fixing them
    loose = tmp_path / "loose.json"
    loose.write_text(json.dumps({
        "dim": 2, "kind": "permutation",
        "a": [[[0, 1], [1, 0]], [[1, 0], [0, 1]]], "z": [[1, 0], [0, 1]],
    }))
    for command in ("zeta-twisted", "bounds"):
        for path, message in ((short, "rank mismatch"), (loose, "does not intertwine the map")):
            assert run([command, "--images", "a b, a", "--rep", str(path)]) == EXIT_INPUT
            err = capsys.readouterr().err
            assert f"error: {path}: " in err and message in err, err


def _pa(**fields):
    return {"components": [{"kind": "pseudo-anosov", "dims": [1, 2, 3], **fields}]}


def _rep1(dim=1, a=([[1]], [[1]])):
    """A 1-dimensional permutation representation file for a rank-2 map."""
    return {"dim": dim, "kind": "permutation", "a": list(a), "z": [[1]]}


_CLASS_COMMANDS = (["assemble", "--class"], ["periodic-zeta", "--period", "2", "--class"])
_ZETA_REP = ["zeta-twisted", "--images", "a b, a", "--rep"]
_UNITARY_1 = [[[1.0, 0.0]]]
MALFORMED_FILES = [
    pytest.param(cmd, data, id=f"{cmd[0]}-{name}")
    for name, data in [
        ("components-number", {"components": 5}),
        ("top-level-list", [1, 2]),
        ("component-string", {"components": ["fixed-a"]}),
        ("dims-null", _pa(dims=[1, None, 2])),
        ("dim-list-null", {"components": [{"kind": "fixed-a", "dim": [1, None, 2]}]}),
        ("dim-dict", {"components": [{"kind": "fixed-a", "dim": {"a": 1}}]}),
        ("prongs-string", {"components": [{"kind": "fixed-b", "dim": 1, "prongs": "3"}]}),
        ("prongs-fraction", {"components": [{"kind": "fixed-b", "dim": 1, "prongs": 2.5}]}),
        ("count-list-string", {"components": [{"kind": "fixed-c", "dim": 1, "prongs": 2, "count": ["1"]}]}),
        ("lefschetz-fraction", {"components": [{"kind": "periodic", "lefschetz": [1, 2.5, 4]}]}),
        ("lefschetz-string", {"components": [{"kind": "periodic", "lefschetz": [1, 2, "4"]}]}),
        ("dims-fraction", _pa(dims=[1, 2.5, 3])),
        ("dims-string", _pa(dims=[1, "2", 3])),
        ("components-missing", {"genus": 2}),
        ("component-kind-missing", {"components": [{"dim": 2}]}),
        ("dim-bool", {"components": [{"kind": "fixed-a", "dim": True}]}),
        ("dim-negative", {"components": [{"kind": "fixed-a", "dim": -5}]}),
        ("dim-list-negative", {"components": [{"kind": "fixed-a", "dim": [1, -1]}]}),
        ("dim-list-empty", {"components": [{"kind": "fixed-a", "dim": []}]}),
        ("count-negative", {"components": [{"kind": "fixed-b", "dim": 1, "prongs": 3, "count": -3}]}),
        ("count-list-negative", {"components": [{"kind": "fixed-c", "dim": 1, "prongs": 2, "count": [1, -1]}]}),
        ("count-list-empty", {"components": [{"kind": "fixed-b", "dim": 1, "prongs": 3, "count": []}]}),
        ("component-kind-unknown", {"components": [{"kind": "fixed-q", "dim": 1}]}),
        ("component-kind-pA", _pa(kind="pA")),
        ("component-kind-pseudoAnosov", _pa(kind="pseudoAnosov")),
        # JSON 1e400 reads as inf, which json.dumps writes as Infinity
        ("dilatation-inf", _pa(dilatation=float("inf"))),
        ("dilatation-nan", _pa(dilatation=float("nan"))),
        ("dilatation-string", _pa(dilatation="x")),
        ("dilatation-bool", _pa(dilatation=True)),
    ]
    for cmd in _CLASS_COMMANDS
] + [
    pytest.param(_ZETA_REP, {"dim": 1, "kind": "permutation", "a": 5, "z": [[1]]}, id="rep-a-number"),
    pytest.param(
        _ZETA_REP,
        {"dim": 1, "kind": "unitary", "a": [_UNITARY_1, [[1.0]]], "z": _UNITARY_1},
        id="rep-unitary-bare-float",
    ),
    pytest.param(_ZETA_REP, _rep1(a=[[[1.7]], [[1]]]), id="rep-entry-fraction"),
    pytest.param(_ZETA_REP, _rep1(a=[[["1"]], [[1]]]), id="rep-entry-string"),
    pytest.param(
        _ZETA_REP,
        {"dim": 1, "kind": "unitary", "a": [_UNITARY_1, [[[1.0]]]], "z": _UNITARY_1},
        id="rep-unitary-cell-short",
    ),
    pytest.param(
        _ZETA_REP,
        {"dim": 1, "kind": "unitary", "a": [_UNITARY_1, [[[1.0, 0.0, 5]]]], "z": _UNITARY_1},
        id="rep-unitary-cell-long",
    ),
    pytest.param(
        _ZETA_REP,
        {"dim": 1, "kind": "unitary", "a": [_UNITARY_1, [[[float("nan"), 0.0]]]], "z": _UNITARY_1},
        id="rep-unitary-cell-nan",
    ),
    pytest.param(
        _ZETA_REP,
        {"dim": 1, "kind": "unitary", "a": [_UNITARY_1, [[[True, False]]]], "z": _UNITARY_1},
        id="rep-unitary-cell-bool",
    ),
    pytest.param(_ZETA_REP, {"dim": 0, "kind": "permutation", "a": [[], []], "z": []}, id="rep-dim-zero"),
    pytest.param(_ZETA_REP, {**_rep1(), "kind": "orthogonal"}, id="rep-kind-unknown"),
    pytest.param(_ZETA_REP, _rep1(dim="1"), id="rep-dim-string"),
    pytest.param(_ZETA_REP, _rep1(dim=1.0), id="rep-dim-float"),
    pytest.param(_ZETA_REP, {"kind": "permutation", "a": [[[1]], [[1]]], "z": [[1]]}, id="rep-dim-missing"),
    pytest.param(_ZETA_REP, _rep1(dim=True), id="rep-dim-bool"),
    pytest.param(_ZETA_REP, _rep1(a=[[[True]], [[1]]]), id="rep-cell-bool"),
    pytest.param(["fox", "--map"], {"rank": True, "images": ["a"]}, id="map-rank-bool"),
    pytest.param(["fox", "--map"], {"rank": 0, "images": []}, id="map-rank-zero"),
    pytest.param(["fox", "--map"], {"rank": 2, "images": ["a b"]}, id="map-images-short"),
    pytest.param(["fox", "--map"], {"rank": 2.7, "images": ["a b", "a"]}, id="map-rank-fraction"),
    pytest.param(["fox", "--map"], {"rank": "2", "images": ["a b", "a"]}, id="map-rank-string"),
    pytest.param(["fox", "--map"], "a b", id="map-json-string"),
    pytest.param(["trace", "--n", "2", "--map"], {"images": ["a b", "a"]}, id="map-rank-missing"),
    pytest.param(["trace", "--n", "2", "--map"], {"rank": 2, "images": [1, 2]}, id="map-images-numbers"),
    pytest.param(["fox", "--map"], [1, 2], id="map-top-level-list"),
    # images iterated as a string's letters or an object's keys would run
    pytest.param(["fox", "--map"], {"rank": 2, "images": "ba"}, id="map-images-string"),
    pytest.param(
        ["trace", "--n", "2", "--map"],
        {"rank": 2, "images": {"a b": 0, "a": 0}},
        id="map-images-object",
    ),
    # a retired extra_matrices field is refused whatever it holds
    pytest.param(
        ["zeta-twisted", "--map"],
        {"rank": 2, "images": ["a b", "a"], "extra_matrices": [[[1]]]},
        id="map-extra-cell-number",
    ),
    pytest.param(
        ["trace", "--n", "2", "--map"],
        {"rank": 2, "images": ["a b", "a"], "extra_matrices": ["a"]},
        id="map-extra-matrix-string",
    ),
    pytest.param(
        ["fox", "--map"],
        {"rank": 2, "images": ["a b", "a"], "extra_matrices": [["ab", "ba"]]},
        id="map-extra-rows-strings",
    ),
    pytest.param(
        ["trace", "--n", "2", "--map"],
        {"rank": 2, "images": ["a b", "a"], "extra_matrices": [[["1", "a"]]]},
        id="map-extra-oblong",
    ),
    pytest.param(
        ["trace", "--n", "2", "--map"],
        {"rank": 2, "images": ["a b", "a"], "extra_matrices": [[]]},
        id="map-extra-empty",
    ),
]


@pytest.mark.parametrize("command,data", MALFORMED_FILES)
def test_malformed_input_files_exit_2(capsys, tmp_path, command, data):
    """JSON that parses but has the wrong shape is bad input naming the file."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data))
    assert run([*command, str(path)]) == EXIT_INPUT
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err, err


def test_output_is_deterministic(capsys):
    first = payload_and_raw(capsys, ["trace", "--images", "a b, a", "--n", "3"])
    second = payload_and_raw(capsys, ["trace", "--images", "a b, a", "--n", "3"])
    assert first == second
    one = payload_and_raw(capsys, ["torus", "--matrix", "0,1,1,1", "--n", "4"])
    two = payload_and_raw(capsys, ["torus", "--matrix", "0,1,1,1", "--n", "4"])
    assert one == two


def payload_and_raw(capsys, argv):
    code = run(argv)
    assert code == EXIT_OK
    return capsys.readouterr().out


# SHA-256 of the full stdout of run(argv).  Any change to canonical term
# order, word rendering or payload layout changes these digests; update them
# only together with a note saying why the output changed.  DOCS_MAP stands
# for the docs endomorphism example written to a file.
DOCS_MAP = "DOCS_MAP"
PINNED_DIGESTS = [
    pytest.param(
        ["trace", "--images", "a b, a", "--n", "6"],
        "965fdb264d813b476c5ce5adbdf827f0143a293c5e780b95c60f697b5a82b155",
        id="golden-trace-n6",
    ),
    pytest.param(
        ["trace", "--images", "a a b, a b", "--n", "6"],
        "2a1a121c8104c0e288c165186617021a213d3b82f10d4874e53a18b154ed2224",
        id="cat-trace-n6",
    ),
    pytest.param(
        ["trace", "--images", "a b, b c, c a B", "--n", "4"],
        "094c066a4d31ca5b502f462dfec3d614bb28f25a784a120d64a2be499872ae5d",
        id="r3-trace-n4",
    ),
    pytest.param(
        ["bounds", "--images", "a a b, a b"],
        "d44dea11d9b694036d23652f2185ddeb5c96f0182629d7efc2e9113a9c6589cb",
        id="cat-bounds",
    ),
    pytest.param(
        ["trace", "--images", "a b, b c, c a B", "--n", "5", "--depth", "2"],
        "e5b0198b78f69b9612cea6927b6c8c9c934765305c199eb2dc29d3635389c562",
        id="r3-trace-n5-depth2",
    ),
    pytest.param(
        ["bounds", "--images", "a b, b c, c a B", "--n", "4"],
        "8a283c5336214bc9aae3f06b44f89cf5db6375b1fbb0a205565605f3dc9b1220",
        id="r3-bounds-n4",
    ),
    pytest.param(
        ["torus", "--matrix", "2,1,1,1", "--n", "8"],
        "f81c6a5c3b2f9e5a62adafe58dd02fa6d7fa967970858adb8c86eb9531ee5bc9",
        id="anosov-torus-n8",
    ),
    pytest.param(
        ["torus", "--matrix", "0,1,1,1", "--n", "8"],
        "13d8ca3fd402f1767cb3118ddb9266a2e0a5c9a90e4b60583325f52c6feed75c",
        id="fibonacci-torus-n8",
    ),
    pytest.param(
        ["torus", "--matrix=-2,-1,-1,-1", "--n", "8"],
        "da1578a41b2fcf8028f52ab2fcc20011a3e043564045bd785d1821bc4d2da5f4",
        id="negative-torus-n8",
    ),
    pytest.param(
        ["periodic-zeta", "--period", "12", "--dims", "1:2,2:4,3:6,4:8,6:12,12:24", "--order", "128"],
        "413883a6aa207d7a16feda0bb804874138d79353e2b76a8e4f93aef0f4be11ea",
        id="periodic-zeta-12-order128",
    ),
    pytest.param(
        ["series", "--dims", ",".join(str(3**n + 2**n) for n in range(1, 129)), "--order", "128"],
        "df3c0f12c99ea1bbe9b5fdbd7c8618ebe7cef37a1963ad89ef110edeb020b56f",
        id="series-128",
    ),
    pytest.param(
        # the docs example is golden, so it prints golden's bytes
        ["trace", "--map", DOCS_MAP, "--n", "6"],
        "965fdb264d813b476c5ce5adbdf827f0143a293c5e780b95c60f697b5a82b155",
        id="docs-trace-n6",
    ),
]


@pytest.mark.parametrize("argv,digest", PINNED_DIGESTS)
def test_output_bytes_pinned(capsys, tmp_path, argv, digest):
    if DOCS_MAP in argv:
        argv = [str(docs_map(tmp_path)) if a == DOCS_MAP else a for a in argv]
    out = payload_and_raw(capsys, argv)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_text_mode(capsys):
    code = run(["--text", "torus", "--matrix", "2,1,1,1", "--n", "1"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "hyperbolic: True" in out
    assert "{" not in out

    # a nested payload indents its fields under their key
    code = run(["--text", "zeta-twisted", "--images", "a b, a", "--modulus", "2"])
    assert code == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    at = lines.index("representation:")
    assert lines[at + 1] == "  dim: 4"
    assert "{" not in "".join(lines)


def test_verbose_times_to_stderr(capsys):
    code = run(["--verbose", "growth", "--seq", "1,2,4"])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "[growth]" in captured.err
    json.loads(captured.out)  # stdout still clean JSON


def test_verbose_shows_library_log(capsys):
    """cat at --modulus 3 cancels a degree-9 factor; --verbose reports it on
    stderr and leaves stdout as it is, and the handler goes when run() returns."""
    argv = ["zeta-twisted", "--images", "a a b, a b", "--modulus", "3"]
    assert run(argv) == EXIT_OK
    quiet = capsys.readouterr()
    assert "cancelled" not in quiet.err
    for _ in range(2):
        assert run(["--verbose", *argv]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err.count("cancelled a common factor of degree 9") == 1
        assert captured.out == quiet.out
    assert logging.getLogger("floergrowth").handlers == []


# The package needs nothing outside the standard library; numpy is only a
# test oracle.  A subprocess blocks the numpy import (pytest has already
# loaded it here), then imports the package, runs every command, and builds,
# validates and twists a unitary representation and takes its zeta.
_WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import floergrowth
from floergrowth import cli
from floergrowth.foxcalc import RingMatrix, jacobian
from floergrowth.freegroup import Endomorphism
from floergrowth.reptheory import (
    Representation, abelian_quotient_rep, twist_matrix, twisted_lefschetz, twisted_zeta,
    validate_rep,
)
with contextlib.redirect_stdout(io.StringIO()):
    for argv in json.loads(sys.argv[1]):
        assert cli.run(argv) == 0, argv
    # golden's mod-2 permutation representation, entered as unitary with z
    # scaled by the phase 0.6 + 0.8i
    golden = Endomorphism.from_images_text(["a b", "a"])
    perm = abelian_quotient_rep(golden, 2).to_json()
    rep = Representation.from_json({
        "dim": perm["dim"],
        "kind": "unitary",
        "a": [[[[x, 0.0] for x in row] for row in m] for m in perm["a"]],
        "z": [[[0.6 * x, 0.8 * x] for x in row] for row in perm["z"]],
    })
    assert validate_rep(rep, golden)[0]
    for mat in (RingMatrix.identity(1), jacobian(golden)):
        twist_matrix(mat, rep)
    twisted_lefschetz(golden, rep, 4)
    assert not twisted_zeta(golden, rep).exact
"""


def test_every_command_runs_without_numpy(tmp_path):
    (tmp_path / "class.json").write_text(
        json.dumps(
            {
                "components": [
                    {"kind": "fixed-a", "dim": 2},
                    {"kind": "periodic", "lefschetz": [1, 1, 4, 5]},
                ],
                "genus": 2,
            }
        )
    )
    commands = [
        *documented_commands(),
        ["fox", "--images", "a a b, a b"],
        ["zeta-twisted", "--images", "a a b, a b", "--modulus", "3"],
        ["bounds", "--images", "a b, b c, c a B", "--n", "3"],
        ["torus", "--matrix", "2,1,1,1", "--n", "4"],
        ["series", "--dims", "1,3,4,7,11"],
        ["assemble", "--class", "class.json", "--report", "--graph-test"],
        ["growth", "--seq", "1,2,4,8"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, json.dumps(commands)],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def _subprocess_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_reader_closing_early_exits_1_quietly():
    """A reader that stops after a few bytes, as `| head -c 10` does, ends
    the command with exit 1, Python's status on EPIPE, and nothing on
    stderr.  The payload is larger than a pipe holds (64 KiB), so the write
    meets the closed pipe."""
    argv = ["trace", "--images", "a a b, a b", "--n", "6", "--no-interval"]
    with subprocess.Popen(
        [sys.executable, "-m", "floergrowth.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_subprocess_env(),
    ) as proc:
        assert proc.stdout.read(10) == b'{\n  "arith'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""
