"""Run one CLI job in-process with every layer's functions wrapped.

Usage: python3 perfbench/traced.py SUMMARY.json CLI-ARGS...

The wrappers are installed from here, around each binding the program calls
through; the library itself is unchanged.  Each wrapped call is a span
(name, start, end, parent).  Self time is a span's duration minus the time
its child spans cover.  Calls, self times and counts are aggregated while
the job runs; span records are kept in memory for the coarse layers only,
since the hot methods (word and ring-element arithmetic, sort keys) run
millions of times.  Everything is written to SUMMARY.json when the job ends.
The payload goes to stdout as the CLI would print it.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    """Calls, self times, counts and kept spans of every wrapped function."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.spans: list[tuple[str, float, float, int]] = []
        self._stack: list[list] = [[0.0, -1]]  # [child time, id of nearest kept span]

    def wrap(self, name, fn, keep=False, count=None):
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0.0, len(spans) if keep else parent[1]]
            if keep:
                spans.append(None)  # reserve the id; filled in on exit
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent[0] += dur
                calls[name] += 1
                self_s[name] += dur - frame[0]
                if keep:
                    spans[frame[1]] = (name, start, end, parent[1])
            if count is not None:
                try:
                    count(self, args, kwargs, result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    pass  # the layer's data shape changed; the count stays 0
            return result

        return wrapper


# -- counters recorded at layer boundaries ---------------------------------

def _word_mul(t, args, kwargs, result):
    size = len(args[0].letters) + len(args[1].letters)
    t.counts["freegroup.word_mul.letters_in"] += size
    t.counts["freegroup.word_mul.letters_cancelled"] += size - len(result.letters)


def _ring_mul(t, args, kwargs, result):
    t.counts["foxcalc.ring_mul.terms_out"] += len(result.terms)


def _trace(t, args, kwargs, result):
    t.counts["groupring.reidemeister_trace.terms_out"] += len(result.body.terms)


def _interval(t, args, kwargs, result):
    t.counts["groupring.intervals"] += 1
    t.counts["groupring.certified"] += bool(result.certified)


def _reach(t, args, kwargs, result):
    max_states = kwargs["max_states"] if "max_states" in kwargs else args[5]
    t.counts["groupring.reach_set.states"] += len(result)
    t.counts["groupring.reach_set.capped"] += len(result) >= max_states


def _det(t, args, kwargs, result):
    t.maxima["ratfunc.det_one_minus_t.dim_max"] = max(
        t.maxima["ratfunc.det_one_minus_t.dim_max"], len(args[0])
    )


def _block(t, args, kwargs, result):
    t.maxima["reptheory.block_dim"] = max(t.maxima["reptheory.block_dim"], len(result))


# (span name, bindings "module:attr" or "module:Class.attr", keep spans, counter)
# Modules import functions by name, so every module that binds a function is
# patched, not only the one that defines it.
LAYERS = [
    ("freegroup.sort_key", ["freegroup:Word.sort_key"], False, None),
    ("freegroup.word_mul", ["freegroup:Word.__mul__"], False, _word_mul),
    ("freegroup.apply", ["freegroup:Endomorphism.apply", "freegroup:Endomorphism.__call__"], False, None),
    ("freegroup.iterate", ["freegroup:Endomorphism.iterate", "freegroup:Endomorphism.__pow__"], True, None),
    ("foxcalc.ring_mul", ["foxcalc:RingElem.__mul__"], False, _ring_mul),
    ("foxcalc.ring_add", ["foxcalc:RingElem.__add__"], False, None),
    ("foxcalc.map_words", ["foxcalc:RingElem.map_words"], False, None),
    ("foxcalc.to_text", ["foxcalc:RingElem.to_text", "foxcalc:RingElem.__str__"], True, None),
    ("groupring.h_matmul", ["groupring:h_matmul"], True, None),
    ("groupring.reidemeister_trace", ["groupring:reidemeister_trace", "cli:reidemeister_trace"], True, _trace),
    ("groupring.reidemeister_interval", ["groupring:reidemeister_interval", "growth:reidemeister_interval"], True, None),
    ("groupring.orbit_coordinate", ["groupring:orbit_coordinate"], False, None),
    ("groupring.norm_interval", ["groupring:norm_interval", "cli:norm_interval"], True, _interval),
    ("groupring.reach_set", ["groupring:_reach_set"], True, _reach),
    ("snf.smith_normal_form", ["snf:smith_normal_form", "groupring:smith_normal_form", "torus:smith_normal_form"], False, None),
    ("reptheory.abelian_quotient_rep", ["reptheory:abelian_quotient_rep", "cli:abelian_quotient_rep"], True, None),
    ("reptheory.validate_rep", ["reptheory:validate_rep", "cli:validate_rep"], True, None),
    ("reptheory.twist_matrix", ["reptheory:twist_matrix"], True, _block),
    ("reptheory.word_matrix", ["reptheory:Representation.word_matrix"], False, None),
    ("reptheory.twisted_lefschetz", ["reptheory:twisted_lefschetz", "cli:twisted_lefschetz"], True, None),
    ("reptheory.twisted_zeta", ["reptheory:twisted_zeta", "cli:twisted_zeta", "growth:twisted_zeta"], True, None),
    ("ratfunc.det_one_minus_t", ["ratfunc:det_one_minus_t", "growth:det_one_minus_t", "reptheory:det_one_minus_t"], True, _det),
    ("ratfunc.from_parts", ["ratfunc:RationalFunction.from_parts"], True, None),
    ("ratfunc.min_root_modulus", ["ratfunc:RationalFunction.min_root_modulus"], True, None),
    ("ratfunc.series", ["ratfunc:RationalFunction.series"], True, None),
    ("growth.full_report", ["growth:full_report", "cli:full_report"], True, None),
    ("growth.spectral_radius", ["growth:spectral_radius"], True, None),
    ("zetafns.series_exp", ["zetafns:PowerSeries.exp"], True, None),
    ("zetafns.periodic_zeta", ["zetafns:periodic_zeta", "cli:periodic_zeta", "mappingclass:periodic_zeta"], True, None),
    ("zetafns.radical_expand", ["zetafns:RadicalRational.expand"], True, None),
    ("zetafns.torus_symplectic_zeta", ["zetafns:torus_symplectic_zeta", "cli:torus_symplectic_zeta"], True, None),
    ("torus.fixed_point_count", ["torus:fixed_point_count", "cli:fixed_point_count"], True, None),
    ("mappingclass.assemble_dim", ["mappingclass:assemble_dim", "cli:assemble_dim"], True, None),
    ("mappingclass.asymptotic_invariant", ["mappingclass:asymptotic_invariant", "cli:asymptotic_invariant"], True, None),
    ("mappingclass.graph_manifold_test", ["mappingclass:graph_manifold_test", "cli:graph_manifold_test"], True, None),
    ("cli.render", ["cli:_emit"], True, None),
]


def _resolve(binding: str):
    """(owner, attribute, current value) of a binding; None when it is gone."""
    module, _, path = binding.partition(":")
    owner = importlib.import_module(f"floergrowth.{module}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if owner is None:
            return None
    raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if raw is None else (owner, attr, raw)


def install(tracer: Tracer) -> list[str]:
    """Wrap every binding in LAYERS; returns the bindings that were missing."""
    missing = []
    wrapped: dict[int, object] = {}  # one wrapper per function, shared by its bindings
    for name, bindings, keep, count in LAYERS:
        for binding in bindings:
            found = _resolve(binding)
            if found is None:
                missing.append(binding)
                continue
            owner, attr, raw = found
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if id(fn) not in wrapped:
                wrapped[id(fn)] = tracer.wrap(name, fn, keep, count)
            new = wrapped[id(fn)]
            setattr(owner, attr, classmethod(new) if isinstance(raw, classmethod) else new)

    cli = importlib.import_module("floergrowth.cli")
    build_parser, validate = cli.build_parser, cli._validate_limits

    def traced_parser():
        parser = build_parser()
        parser.parse_args = tracer.wrap("cli.parse", parser.parse_args, keep=True)
        return parser

    cli.build_parser = tracer.wrap("cli.parse", traced_parser, keep=True)
    cli._validate_limits = tracer.wrap("cli.parse", validate, keep=True)
    return missing


def main(argv: list[str]) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    start = clock()
    cli = importlib.import_module("floergrowth.cli")
    import_s = clock() - start
    tracer = Tracer()
    missing = install(tracer)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(cli_args)
    out = buf.getvalue()
    summary = {
        "import_s": import_s,
        "render_bytes": len(out.encode()),
        "missing": missing,
        "calls": tracer.calls,
        "self_s": tracer.self_s,
        "counts": tracer.counts,
        "maxima": tracer.maxima,
        "spans": tracer.spans,
    }
    with open(summary_path, "w") as fh:
        json.dump(summary, fh)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
