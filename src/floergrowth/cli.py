"""Command-line front end.

Every subcommand reads small JSON or inline descriptions, runs the exact
machinery, and prints a deterministic JSON payload (or ``--text`` for a
human-oriented rendering).  Exit codes: 0 success, 1 when the reader
closed stdout before the payload was written, 2 bad input, 3 when
``--strict`` was asked for and some result could not be certified (the
payload's ``strict_failure`` says which), and 4 when an internal cross-check
of a result failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

from .foxcalc import jacobian
from .freegroup import Endomorphism, as_integer
from .groupring import DEFAULT_SEARCH_DEPTH, norm_interval, reidemeister_trace
from .growth import MIN_GROWTH_TERMS, SPECTRAL_CROSSCHECK_TOL, full_report, growth_estimate
from .mappingclass import (
    ClassSpec,
    assemble_dim,
    asymptotic_invariant,
    graph_manifold_test,
    periodic_zeta_for_class,
)
from .ratfunc import CANCEL_TOL, CrossCheckError, RationalFunction
from .reptheory import (
    Representation,
    abelian_quotient_rep,
    check_block_size,
    trivial_representation,
    twisted_lefschetz,
    twisted_zeta,
    validate_rep,
)
from .torus import fixed_point_count, lefschetz_number
from .zetafns import (
    is_hyperbolic,
    periodic_zeta,
    radius_estimate,
    symplectic_zeta_series,
    torus_symplectic_zeta,
    weil_zeta_torus,
)

MAX_ITERATES = 64
MAX_ORDER = 128
MAX_DEPTH = 16

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1  # Python's own status on EPIPE
EXIT_INPUT = 2
EXIT_UNCERTIFIED = 3
EXIT_CROSSCHECK = 4


class CLIError(ValueError):
    """Bad input; reported on stderr and mapped to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):  # every option has one spelling: no prefixes
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):  # keep run() returning ints instead of exiting
        raise CLIError(message)


# -- input loading -------------------------------------------------------------

def _read(path: str, build):
    """``build`` applied to a JSON file's data.  A missing field, a TypeError
    or AttributeError, or a ValueError raised while building is bad input
    naming the file."""
    try:
        data = json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise CLIError(f"no such file: {path}")
    except ValueError as e:  # a JSON syntax error, or an integer past the digit limit
        raise CLIError(f"{path}: invalid JSON ({e})")
    try:
        return build(data)
    except KeyError as e:
        raise CLIError(f"{path}: missing field {e.args[0]!r}") from None
    except (TypeError, AttributeError) as e:
        raise CLIError(f"{path}: malformed data ({e})") from None
    except ValueError as e:
        raise CLIError(f"{path}: {e}") from None


def _load_endo(args) -> Endomorphism:
    if args.map:
        return _read(args.map, Endomorphism.from_json)
    if args.images:
        parts = [p.strip() for p in re.split(r"[,;]", args.images) if p.strip()]
        return Endomorphism.from_images_text(parts)
    raise CLIError("provide --map FILE or --images 'a b, a'")


def _load_rep(args, f: Endomorphism) -> Representation:
    if args.rep:
        def build(data) -> Representation:
            check_block_size(f, as_integer(data["dim"], "dim"))
            return _intertwining(Representation.from_json(data), f)

        return _read(args.rep, build)
    if args.modulus is not None:
        if args.modulus < 2:
            raise CLIError("modulus must be >= 2")
        check_block_size(f, args.modulus ** f.rank)
        return _intertwining(abelian_quotient_rep(f, args.modulus), f)
    return trivial_representation(f.rank)


def _intertwining(rep: Representation, f: Endomorphism) -> Representation:
    """The representation, once validate_rep accepts it for the map."""
    ok, residual = validate_rep(rep, f)
    if not ok:
        raise ValueError(
            f"representation does not intertwine the map (max residual {residual:.3g})"
        )
    return rep


_EXPECTED = {int: "comma-separated integers", float: "numbers"}
_SHOWN_CHARS = 20  # a longer value is cut to this many characters in a message


def _shown(text: str) -> str:
    if len(text) > _SHOWN_CHARS:
        return f"{text[:_SHOWN_CHARS]!r}... ({len(text)} characters)"
    return repr(text)


def _entry(i: int, piece: str) -> str:
    """Refused entry i of an option's list, named by its position and never
    echoed whole; a number in it past Python's digit limit is said so."""
    limit = sys.get_int_max_str_digits()  # 0: no limit
    for number in piece.split(":"):
        digits = number[1:] if number[:1] in ("+", "-") else number
        if limit and digits.isdecimal() and len(digits) > limit:
            return f"entry {i} has {len(digits)} digits, above Python's limit of {limit}"
    return f"got {_shown(piece)} (entry {i})"


def _parse_numbers(text: str, option: str, kind: type = int) -> list:
    """The comma- or space-separated numbers of an option's value."""
    out = []
    for i, piece in enumerate([p for p in re.split(r"[,\s]+", text.strip()) if p], 1):
        try:
            out.append(kind(piece))
        except ValueError:
            raise CLIError(f"{option}: expected {_EXPECTED[kind]}, {_entry(i, piece)}") from None
    return out


def _parse_matrix_2x2(text: str):
    vals = _parse_numbers(text, "--matrix")
    if len(vals) != 4:
        raise CLIError("--matrix needs four integers a,b,c,d (row major)")
    return ((vals[0], vals[1]), (vals[2], vals[3]))


def _parse_dims_map(text: str) -> dict[int, int]:
    out = {}
    for i, piece in enumerate([p.strip() for p in text.split(",") if p.strip()], 1):
        try:
            d, v = (int(x) for x in piece.split(":"))
        except ValueError:
            raise CLIError(f"--dims entries look like 'd:value', {_entry(i, piece)}") from None
        if d in out:
            raise CLIError(f"--dims gives divisor {d} twice")
        out[d] = v
    if not out:
        raise CLIError("--dims is empty")
    return out


# -- output rendering ----------------------------------------------------------

def _coeff_json(c):
    if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
        return str(c)
    c = complex(c)
    return [c.real, c.imag]


def _coeff_texts(coeffs, option: str) -> list[str]:
    """Each exact coefficient as text; one past Python's digit limit for
    printing an integer is bad input, named by its power of t."""
    out = []
    for k, c in enumerate(coeffs):
        try:
            out.append(str(c))
        except ValueError:
            raise CLIError(
                f"{option}: the coefficient of t^{k} has more than "
                f"{sys.get_int_max_str_digits()} digits, Python's limit for printing an integer"
            ) from None
    return out


def _zeta_certification(rep: Representation) -> str:
    return "exact" if rep.is_exact() else f"float({CANCEL_TOL:g})"


def _rational_json(r: RationalFunction) -> dict:
    m = r.min_root_modulus()
    return {
        "numerator": [_coeff_json(c) for c in r.numerator],
        "denominator": [_coeff_json(c) for c in r.denominator],
        "exact": r.exact,
        "min_root_modulus": m if m != float("inf") else None,
        "cancelled_pairs": len(r.cancelled),
        "text": r.to_text(),
    }


def _emit(payload: dict, args) -> None:
    if args.text:  # one write: an unprintable value leaves stdout empty
        print("\n".join(_text_lines(payload)))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))


def _text_lines(payload, prefix=""):
    """Flat key: value rendering, stable order, lists inlined where short."""
    if isinstance(payload, dict):
        for key in sorted(payload):
            val = payload[key]
            if isinstance(val, dict):
                yield f"{prefix}{key}:"
                yield from _text_lines(val, prefix + "  ")
            elif isinstance(val, list) and val and isinstance(val[0], dict):
                for i, item in enumerate(val):
                    yield f"{prefix}{key}[{i}]:"
                    yield from _text_lines(item, prefix + "  ")
            else:
                yield f"{prefix}{key}: {val}"
    else:
        yield f"{prefix}{payload}"


# -- subcommand handlers -------------------------------------------------------

def _cmd_fox(args) -> dict:
    f = _load_endo(args)
    jac = jacobian(f)
    return {
        "rank": f.rank,
        "images": [w.to_text() for w in f.images],
        "jacobian": [[e.to_text() for e in row] for row in jac.entries],
        "abelianization": [list(row) for row in f.abelianize()],
    }


def _cmd_trace(args) -> dict:
    f = _load_endo(args)
    rows = []
    all_certified = True
    for n in range(1, args.n + 1):
        h = reidemeister_trace(f, n)
        row = {"n": n, "trace": h.body.to_text()}
        if not args.no_interval:
            iv = norm_interval(h, f, search_depth=args.depth)
            row.update(
                norm_lower=iv.lower,
                norm_upper=iv.upper,
                certification="certified-interval" if iv.certified else "uncertified-interval",
            )
            all_certified = all_certified and iv.certified
        rows.append(row)
    payload = {"rows": rows, "arithmetic": "exact"}
    if args.strict and not args.no_interval and not all_certified:
        payload["strict_failure"] = "some interval is not certified"
    return payload


def _cmd_zeta_twisted(args) -> dict:
    f = _load_endo(args)
    rep = _load_rep(args, f)
    zeta = twisted_zeta(f, rep)
    payload = {
        "zeta": _rational_json(zeta),
        "representation": {"dim": rep.dim, "kind": rep.kind},
        "certification": _zeta_certification(rep),
    }
    if args.order:
        series = zeta.series(args.order)
        payload["series"] = [_coeff_json(c) for c in series]
        payload["lefschetz_check"] = [
            _coeff_json(c) for c in twisted_lefschetz(f, rep, min(args.order, 8))
        ]
    if args.strict and not rep.is_exact():
        payload["strict_failure"] = "representation is numerical, zeta is not exact"
    return payload


def _cmd_bounds(args) -> dict:
    if args.n < MIN_GROWTH_TERMS:
        raise CLIError(
            f"bounds needs --n of at least {MIN_GROWTH_TERMS} for its sequence estimate"
        )
    f = _load_endo(args)
    rep = _load_rep(args, f)
    report = full_report(f, rep=rep, n_iterates=args.n)
    payload = report.to_json()
    payload["certification"] = {
        "lower_bound": _zeta_certification(rep),
        "upper_bound_norm": "exact",
        "upper_bound_spectral": f"float({SPECTRAL_CROSSCHECK_TOL:g} cross-check)",
        "sequence_estimate": "certified-interval uppers",
    }
    return payload


def _cmd_growth(args) -> dict:
    est = growth_estimate(_parse_numbers(args.seq, "--seq", float))
    return {"estimate": est.value, "window_start": est.window_start, "n_terms": est.n_terms}


def _cmd_periodic_zeta(args) -> dict:
    if args.class_file:
        rr = periodic_zeta_for_class(_read(args.class_file, ClassSpec.from_json), args.period)
        option = "--class"
    elif args.dims:
        rr = periodic_zeta(args.period, _parse_dims_map(args.dims))
        option = "--dims"
    else:
        raise CLIError("provide --dims 'd:value,...' or --class FILE")
    payload = rr.to_json()
    payload["text"] = rr.to_text()
    if args.order:
        payload["expansion"] = _coeff_texts(rr.expand(args.order).coeffs, option)
    payload["certification"] = "exact"
    return payload


def _cmd_torus(args) -> dict:
    a = _parse_matrix_2x2(args.matrix)
    hyperbolic = is_hyperbolic(a)
    rows = []
    for n in range(1, args.n + 1):
        row = {"n": n, "L": lefschetz_number(a, n)}
        if hyperbolic:
            row["N"] = fixed_point_count(a, n)
        rows.append(row)
    payload = {
        "matrix": [list(r) for r in a],
        "hyperbolic": hyperbolic,
        "rows": rows,
        "weil_zeta": weil_zeta_torus(a).to_text(),
        "certification": "exact",
    }
    if hyperbolic:
        payload["symplectic_zeta"] = torus_symplectic_zeta(a).to_text()
    else:
        payload["note"] = "map is not hyperbolic; fixed-point counts omitted"
    return payload


def _cmd_assemble(args) -> dict:
    spec = _read(args.class_file, ClassSpec.from_json)
    payload: dict = {"components": len(spec.components)}
    limit = spec.max_iterate()
    horizon = args.n if args.n is not None else min(6, limit or 6)
    if limit is not None and horizon > limit:
        raise CLIError(f"class data stops at iterate {limit}; asked for {horizon}")
    payload["dims"] = [
        {"n": n, "dim": assemble_dim(spec, n)} for n in range(1, horizon + 1)
    ]
    if args.report:
        payload["report"] = asymptotic_invariant(spec, max(horizon, MIN_GROWTH_TERMS)).to_json()
    if args.graph_test:
        payload["graph_test"] = graph_manifold_test(spec).to_json()
    return payload


def _cmd_series(args) -> dict:
    dims = _parse_numbers(args.dims, "--dims")
    if not dims:
        raise CLIError("--dims is empty")
    for i, d in enumerate(dims, 1):
        if d < 0:
            raise CLIError(f"--dims: entries must be nonnegative, got {_shown(str(d))} (entry {i})")
    order = len(dims) if args.order is None else args.order
    if order > MAX_ORDER:
        raise CLIError(
            f"--dims has {len(dims)} entries, above the --order cap of {MAX_ORDER}; "
            f"pass --order {MAX_ORDER} or less"
        )
    if order > len(dims):
        raise CLIError(f"--order {order} needs {order} dims, got {len(dims)}")
    series = symplectic_zeta_series(dims, order)
    payload = {
        "order": order,
        "coefficients": _coeff_texts(series.coeffs, "--dims"),
        "certification": "exact",
    }
    if len(dims) >= MIN_GROWTH_TERMS:
        payload["radius_estimate"] = radius_estimate(dims)
    return payload


# -- parser --------------------------------------------------------------------

def _add_map_options(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--map", help="JSON file: {rank, images}")
    g.add_argument("--images", help="inline images, e.g. 'a b, a'")


def _add_rep_options(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--rep", help="JSON file describing a representation")
    g.add_argument(
        "--modulus",
        type=int,
        help="use the translation action on the mod-m homology points",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="floergrowth", description=__doc__)
    parser.add_argument("--text", action="store_true", help="human-readable output")
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print timing and library log messages to stderr",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fox", help="jacobian and abelianization of a map")
    p.set_defaults(handler=_cmd_fox)
    _add_map_options(p)

    p = sub.add_parser("trace", help="iterate traces with certified norm intervals")
    p.set_defaults(handler=_cmd_trace)
    _add_map_options(p)
    p.add_argument("--n", type=int, default=4, help="compute iterates 1..N")
    p.add_argument(
        "--depth", type=int, default=DEFAULT_SEARCH_DEPTH, help="conjugator search depth"
    )
    p.add_argument("--no-interval", action="store_true", help="traces only")
    p.add_argument("--strict", action="store_true", help="exit 3 unless certified")

    p = sub.add_parser("zeta-twisted", help="twisted zeta of a map and representation")
    p.set_defaults(handler=_cmd_zeta_twisted)
    _add_map_options(p)
    _add_rep_options(p)
    p.add_argument("--order", type=int, default=0, help="also print the series")
    p.add_argument("--strict", action="store_true", help="exit 3 unless exact")

    p = sub.add_parser("bounds", help="growth bound sandwich for a map")
    p.set_defaults(handler=_cmd_bounds)
    _add_map_options(p)
    _add_rep_options(p)
    p.add_argument("--n", type=int, default=6, help="iterates for the sequence proxy")

    p = sub.add_parser("growth", help="tail-window growth proxy of a sequence")
    p.set_defaults(handler=_cmd_growth)
    p.add_argument("--seq", required=True, help="comma-separated values")

    p = sub.add_parser("periodic-zeta", help="radical closed form for periodic maps")
    p.set_defaults(handler=_cmd_periodic_zeta)
    p.add_argument("--period", type=int, required=True)
    g = p.add_mutually_exclusive_group()
    g.add_argument("--dims", help="dimensions at divisor iterates, 'd:value,...'")
    g.add_argument("--class", dest="class_file", help="class description JSON")
    p.add_argument("--order", type=int, default=0, help="also print the expansion")

    p = sub.add_parser("torus", help="closed-form counts and zetas on the torus")
    p.set_defaults(handler=_cmd_torus)
    p.add_argument(
        "--matrix",
        required=True,
        help="a,b,c,d row major; write a negative first entry as "
        "--matrix=-2,1,1,-1 or --matrix \"-2 1 1 -1\"",
    )
    p.add_argument("--n", type=int, default=6, help="iterates 1..N")

    p = sub.add_parser("assemble", help="iterate dimensions of a reducible class")
    p.set_defaults(handler=_cmd_assemble)
    p.add_argument("--class", dest="class_file", required=True)
    p.add_argument("--n", type=int, help="iterates 1..N (default from data)")
    p.add_argument("--report", action="store_true", help="include the growth report")
    p.add_argument("--graph-test", action="store_true", help="include the graph test")

    p = sub.add_parser("series", help="exact zeta series from an iterate-dim sequence")
    p.set_defaults(handler=_cmd_series)
    p.add_argument("--dims", required=True, help="comma-separated dimensions")
    p.add_argument("--order", type=int, help="series order (default: the number of dims)")

    return parser


# option: (least, greatest); checked when the command has the option and it is set
_LIMITS = {
    "n": (1, MAX_ITERATES),
    "order": (0, MAX_ORDER),
    "depth": (0, MAX_DEPTH),
    "period": (1, MAX_ORDER),
}


def _validate_limits(args) -> None:
    for option, (low, high) in _LIMITS.items():
        value = getattr(args, option, None)
        if value is not None and not low <= value <= high:
            raise CLIError(f"--{option} must be between {low} and {high}")


@contextlib.contextmanager
def _library_log(enabled: bool):
    """Send the floergrowth logger tree to stderr at INFO while enabled."""
    if not enabled:
        yield
        return
    import logging  # only a --verbose run can show a record, so only it loads this

    logger = logging.getLogger("floergrowth")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _validate_limits(args)
        start = time.perf_counter()
        with _library_log(args.verbose):
            payload = args.handler(args)
        if args.verbose:
            print(f"[{args.command}] {time.perf_counter() - start:.3f}s", file=sys.stderr)
    except (ValueError, KeyError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except CrossCheckError as e:
        print(f"error: cross-check failed: {e}", file=sys.stderr)
        return EXIT_CROSSCHECK
    try:
        _emit(payload, args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
    except BrokenPipeError:
        # stdout goes to devnull, so the interpreter's final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except ValueError:  # the payload is rendered whole before it is written
        print(
            f"error: the result holds an integer of more than {sys.get_int_max_str_digits()} "
            "digits, Python's limit for printing one",
            file=sys.stderr,
        )
        return EXIT_INPUT
    return EXIT_UNCERTIFIED if "strict_failure" in payload else EXIT_OK


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
