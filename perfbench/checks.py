"""Output checks of CLI payloads against the reference recorded at seed 0.

Rules:
- exact fields (trace strings, zeta coefficients, series, Lefschetz checks,
  torus rows, assembled dims, texts) match the reference exactly;
- every norm interval contains the reference value where the reference is
  certified, and overlaps the reference bracket where it is not, so a later
  tightening still passes;
- floats agree with the reference to FLOAT_REL_TOL relative.

Trace strings are stored as digests.  Under a generator relabelling the
trace is mapped back, put in canonical term order and rendered again before
its digest is compared.
"""

from __future__ import annotations

import hashlib
import math

from workloads import Job

FLOAT_REL_TOL = 1e-9
_INTERVAL_KEYS = ("norm_lower", "norm_upper", "certification")


def digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


# -- ring-element text, as the CLI renders it --------------------------------

def _parse_terms(text: str) -> list[tuple[tuple[int, ...], int]]:
    """(letters, coefficient) pairs of a rendered ring element."""
    if text == "0":
        return []
    chunks: list[tuple[int, list[str]]] = []
    sign, toks = 1, []
    for tok in text.split(" "):
        if tok in ("+", "-"):
            chunks.append((sign, toks))
            sign, toks = (1 if tok == "+" else -1), []
        else:
            toks.append(tok)
    chunks.append((sign, toks))
    first_sign, first = chunks[0]
    if first[0].startswith("-"):
        chunks[0] = (-first_sign, [first[0][1:], *first[1:]])
    out = []
    for sign, toks in chunks:
        mag = 1
        if toks[0].isdigit():
            mag, toks = int(toks[0]), toks[1:]
        letters = tuple(
            ord(ch) - ord("a") + 1 if ch.islower() else -(ord(ch) - ord("A") + 1)
            for ch in toks
        )
        out.append((letters, sign * mag))
    return out


def _sort_key(letters):
    # length-lexicographic; the inverse of a generator sorts just after it
    return (len(letters), tuple((abs(x), 0 if x > 0 else 1) for x in letters))


def _render(terms) -> str:
    if not terms:
        return "0"
    chunks = []
    for i, (letters, c) in enumerate(terms):
        body = " ".join(
            chr(ord("a") + x - 1) if x > 0 else chr(ord("A") - x - 1) for x in letters
        ) or "1"
        mag = abs(c)
        piece = str(mag) if body == "1" else (body if mag == 1 else f"{mag} {body}")
        if i == 0:
            chunks.append(piece if c > 0 else f"-{piece}")
        else:
            chunks.append(f"{'-' if c < 0 else '+'} {piece}")
    return " ".join(chunks)


def trace_digest(text: str, perm: tuple[int, ...] | None) -> str:
    """Digest of a trace string, first mapped back through the relabelling.

    A relabelled trace must itself be in canonical term order; otherwise the
    result is marked, so an ordering fault cannot hide behind the re-sort.
    """
    if perm is None or perm == tuple(range(len(perm))):
        return digest(text)
    terms = _parse_terms(text)
    keys = [_sort_key(letters) for letters, _ in terms]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return "terms not in canonical order"
    back = {p + 1: i + 1 for i, p in enumerate(perm)}
    terms = [
        (tuple(back[x] if x > 0 else -back[-x] for x in letters), c)
        for letters, c in terms
    ]
    terms.sort(key=lambda t: _sort_key(t[0]))
    return digest(_render(terms))


# -- payload comparison --------------------------------------------------------

def reference_form(payload: dict) -> dict:
    """The payload as stored in the reference: trace strings as digests."""
    if isinstance(payload.get("rows"), list):
        payload = dict(payload)
        payload["rows"] = [
            dict(r, trace=digest(r["trace"])) if "trace" in r else r
            for r in payload["rows"]
        ]
    return payload


def _interval_problems(row: dict, ref: dict, where: str) -> list[str]:
    lo, hi, label = (row.get(k) for k in _INTERVAL_KEYS)
    if not (isinstance(lo, int) and isinstance(hi, int) and lo <= hi):
        return [f"{where}: bad interval [{lo}, {hi}]"]
    problems = []
    want = "certified-interval" if lo == hi else "uncertified-interval"
    if label != want:
        problems.append(f"{where}: certification {label!r} for [{lo}, {hi}]")
    ref_lo, ref_hi = ref["norm_lower"], ref["norm_upper"]
    if ref_lo == ref_hi and not lo <= ref_lo <= hi:
        problems.append(f"{where}: [{lo}, {hi}] misses certified norm {ref_lo}")
    if ref_lo != ref_hi and (lo > ref_hi or hi < ref_lo):
        problems.append(f"{where}: [{lo}, {hi}] misses reference [{ref_lo}, {ref_hi}]")
    return problems


def _diff(got, want, where: str) -> list[str]:
    if isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isclose(got, want, rel_tol=FLOAT_REL_TOL, abs_tol=1e-300):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [p for k in want for p in _diff(got[k], want[k], f"{where}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [p for i, (g, w) in enumerate(zip(got, want)) for p in _diff(g, w, f"{where}[{i}]")]
    if got != want or type(got) is not type(want):
        return [f"{where}: {str(got)[:80]!r} != {str(want)[:80]!r}"]
    return []


def problems(job: Job, payload: dict, ref: dict) -> list[str]:
    """Every way the payload breaks the rules above; empty when it passes."""
    got, want = dict(payload), dict(ref)
    out = []
    if job.matrix is not None:
        if got.get("matrix") != [list(r) for r in job.matrix]:
            out.append(f"matrix: {got.get('matrix')} is not the matrix sent")
        got["matrix"] = want["matrix"]
    if job.argv[0] == "trace" and isinstance(got.get("rows"), list):
        rows, ref_rows = got.pop("rows"), want.pop("rows")
        if len(rows) != len(ref_rows):
            return out + [f"rows: {len(rows)} != {len(ref_rows)}"]
        for i, (row, ref_row) in enumerate(zip(rows, ref_rows)):
            where = f"rows[{i}]"
            if "norm_lower" in ref_row:
                out += _interval_problems(row, ref_row, where)
            if isinstance(row.get("trace"), str):
                row = dict(row, trace=trace_digest(row["trace"], job.perm))
            plain = lambda r: {k: v for k, v in r.items() if k not in _INTERVAL_KEYS}
            out += _diff(plain(row), plain(ref_row), where)
    return out + _diff(got, want, "payload")


def interval_sums(payload: dict) -> tuple[int, int]:
    """(sum of norm_lower, sum of norm_upper) over the payload's interval rows."""
    rows = [r for r in payload.get("rows", []) if isinstance(r, dict) and "norm_lower" in r]
    return sum(r["norm_lower"] for r in rows), sum(r["norm_upper"] for r in rows)
