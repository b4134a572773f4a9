"""Check that the traced run sees every layer where it should.

Usage (from the repository root): python3 perfbench/check_layers.py

Runs each workload's jobs once through traced.py at seed 0.  Fails when a
per-layer metric reads 0 on a workload it is expected to move, or reads
nonzero on a workload that is expected to bypass that layer: a wrapper that
no longer reaches its binding shows up here as a zero.
"""

from __future__ import annotations

import json
import sys

import run
import workloads

_FREEGROUP = [
    "freegroup.word_mul.calls", "freegroup.word_mul.self_s",
    "freegroup.word_mul.letters_in", "freegroup.word_mul.letters_cancelled",
    "freegroup.apply.calls", "freegroup.apply.self_s", "freegroup.iterate.calls",
]
_CLI = ["cli.parse.self_s", "cli.render.self_s", "cli.render.bytes", "cli.import_s"]

_GROUP_RING = _FREEGROUP + _CLI + [
    "freegroup.sort_key.calls", "freegroup.sort_key.self_s",
    "foxcalc.ring_mul.calls", "foxcalc.ring_mul.self_s", "foxcalc.ring_mul.terms_out",
    "foxcalc.ring_add.calls", "foxcalc.ring_add.self_s",
    "foxcalc.map_words.self_s", "foxcalc.to_text.self_s",
    "groupring.h_matmul.calls", "groupring.h_matmul.self_s",
    "groupring.reidemeister_trace.calls", "groupring.reidemeister_trace.terms_out",
    "groupring.orbit_coordinate.calls", "groupring.orbit_coordinate.self_s",
    "groupring.reidemeister_interval.calls", "groupring.norm_interval.self_s",
    "groupring.reach_set.calls", "groupring.reach_set.self_s",
    "groupring.reach_set.states", "groupring.reach_set.capped",
    "groupring.certified_share",
    "snf.smith_normal_form.calls", "snf.smith_normal_form.self_s",
    "growth.full_report.self_s", "growth.spectral_radius.calls",
    "growth.spectral_radius.self_s", "ratfunc.det_one_minus_t.calls",
]
_CLOSED_FORM = _CLI + [
    "reptheory.abelian_quotient_rep.self_s", "reptheory.validate_rep.self_s",
    "reptheory.twist_matrix.self_s", "reptheory.word_matrix.calls",
    "reptheory.word_matrix.self_s", "reptheory.twisted_lefschetz.self_s",
    "reptheory.block_dim",
    "ratfunc.det_one_minus_t.calls", "ratfunc.det_one_minus_t.self_s",
    "ratfunc.det_one_minus_t.dim_max", "ratfunc.from_parts.self_s",
    "ratfunc.min_root_modulus.self_s", "ratfunc.series.self_s",
    "snf.smith_normal_form.calls", "snf.smith_normal_form.self_s",
    "zetafns.series_exp.self_s", "zetafns.periodic_zeta.self_s",
    "zetafns.radical_expand.self_s", "zetafns.torus_symplectic_zeta.self_s",
    "torus.fixed_point_count.calls", "torus.fixed_point_count.self_s",
    "mappingclass.assemble_dim.self_s", "mappingclass.asymptotic_invariant.self_s",
    "mappingclass.graph_manifold_test.self_s",
]
NONZERO = {"trace": _GROUP_RING, "zeta": _CLOSED_FORM}

ZERO = {
    "trace": [
        "torus.fixed_point_count.calls", "zetafns.series_exp.self_s",
        "mappingclass.assemble_dim.self_s",
    ],
    "zeta": [
        "freegroup.word_mul.calls", "foxcalc.ring_mul.calls",
        "groupring.h_matmul.calls", "groupring.reach_set.calls",
        "growth.spectral_radius.calls",
    ],
}


def main() -> int:
    unexpected = set(run.PER_LAYER) - {"trace.overhead_s"} - {
        m for names in NONZERO.values() for m in names
    }
    problems = [f"{m}: no workload is expected to move it" for m in sorted(unexpected)]
    ref = json.loads(run.REFERENCE.read_text())["jobs"]
    env = run.child_env()
    for name in workloads.WORKLOADS:
        tally = run.Tally()
        summaries = run.traced_pass(workloads.jobs(name, 0, run.WORK), ref, env, tally)
        problems += [f"{name}: {f}" for f in tally.failures]
        values = run.combine_traced(summaries, 0.0)
        problems += [f"{name}: {m} is 0" for m in NONZERO[name] if not values[m]]
        problems += [f"{name}: {m} = {values[m]}, expected 0" for m in ZERO.get(name, []) if values[m]]
        missing = sorted({b for s in summaries for b in s["missing"]})
        problems += [f"{name}: binding {b} not found" for b in missing]
    for p in problems:
        print(p)
    print("layer check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
