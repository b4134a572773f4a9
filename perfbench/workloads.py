"""Corpus inputs and the job list of each benchmark workload.

Seed 0 runs the corpus as written.  Any other seed relabels every free-group
map by a random permutation of its generators (f' = phi o f o phi^-1), and
every torus matrix by a random signed coordinate permutation (S A S^T).
Both leave every checked number unchanged; a relabelled map's Reidemeister
traces are the relabelled traces, so they are checked too after mapping
back.  Generator inversions are not used: they keep the norm intervals but
change which terms cancel at chain level, and so move the cost of the
interval search by up to a factor of 100 (golden, n = 8), which would make
the seed choose the measured time.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

GOLDEN = ("a b", "a")
CAT = ("a a b", "a b")
R3 = ("a b", "b c", "c a B")
ANOSOV = ((2, 1), (1, 1))  # its Nielsen counts are the pseudo-Anosov dims
ANOSOV_BIG = ((5, 2), (2, 1))
DILATATION = (3 + math.sqrt(5)) / 2  # top eigenvalue of ANOSOV
CLASS_ITERATES = 24

WORKLOADS = ("trace", "zeta")


@dataclass(frozen=True)
class Job:
    """One CLI invocation and what its output check needs to know."""

    name: str  # stable across seeds; keys the reference payload
    argv: tuple[str, ...]
    perm: tuple[int, ...] | None = None  # generator relabelling of the map
    matrix: tuple[tuple[int, ...], ...] | None = None  # torus matrix as sent


def relabel_word(text: str, perm: tuple[int, ...]) -> str:
    """Apply the generator permutation i -> perm[i] (0-based) to a word."""
    out = []
    for ch in text.split():
        i = perm[ord(ch.lower()) - ord("a")]
        letter = chr(ord("a") + i)
        out.append(letter if ch.islower() else letter.upper())
    return " ".join(out)


def relabel_map(images: tuple[str, ...], perm: tuple[int, ...]) -> tuple[str, ...]:
    """Images of phi o f o phi^-1, where phi sends generator i to perm[i]."""
    out = [""] * len(images)
    for i, img in enumerate(images):
        out[perm[i]] = relabel_word(img, perm)
    return tuple(out)


def _conjugate(a, swap: bool, signs: tuple[int, int]):
    """S A S^T for the signed permutation matrix S given by swap and signs."""
    order = (1, 0) if swap else (0, 1)
    return tuple(
        tuple(signs[i] * signs[j] * a[order[i]][order[j]] for j in range(2))
        for i in range(2)
    )


class Inputs:
    """All inputs of one seed, drawn in a fixed order from one generator."""

    def __init__(self, seed: int):
        rng = random.Random(seed)

        def perm(k):
            p = list(range(k))
            if seed != 0:
                rng.shuffle(p)
            return tuple(p)

        def matrix(a):
            if seed == 0:
                return a
            return _conjugate(a, rng.random() < 0.5, (rng.choice((1, -1)), rng.choice((1, -1))))

        self.perms = {"golden": perm(2), "cat": perm(2), "r3": perm(3)}
        self.maps = {
            "golden": relabel_map(GOLDEN, self.perms["golden"]),
            "cat": relabel_map(CAT, self.perms["cat"]),
            "r3": relabel_map(R3, self.perms["r3"]),
        }
        self.anosov = matrix(ANOSOV)
        self.anosov_big = matrix(ANOSOV_BIG)
        self.components = class_components()
        if seed != 0:
            rng.shuffle(self.components)

    def map_job(self, name: str, key: str, command: str, *extra: str) -> Job:
        argv = (command, "--images", ", ".join(self.maps[key]), *extra)
        return Job(name, argv, perm=self.perms[key])

    def torus_job(self, name: str, a, n: int) -> Job:
        text = ",".join(str(x) for row in a for x in row)
        return Job(name, ("torus", "--matrix", text, "--n", str(n)), matrix=a)


def nielsen_counts(a, n_terms: int) -> list[int]:
    """|det(A^n - I)| = tr(A^n) - 2 for det A = 1, by the trace recurrence."""
    tau = a[0][0] + a[1][1]
    prev, cur = 2, tau  # tr(A^0), tr(A^1)
    out = []
    for _ in range(n_terms):
        out.append(abs(cur - 2))
        prev, cur = cur, tau * cur - prev
    return out


def class_components() -> list[dict]:
    """A reducible class whose assembled dims grow like its dilatation.

    The pseudo-Anosov piece takes the Nielsen counts of ANOSOV, which grow
    like DILATATION, so ``assemble --report`` accepts the class.
    """
    return [
        {"kind": "fixed-a", "dim": 2},
        {"kind": "fixed-b", "prongs": 3, "count": 1, "dim": 2},
        {"kind": "fixed-c", "prongs": 2, "count": 2, "dim": 1},
        {"kind": "periodic", "lefschetz": [1, 1, 4] * (CLASS_ITERATES // 3)},
        {
            "kind": "pseudo-anosov",
            "dims": nielsen_counts(ANOSOV, CLASS_ITERATES),
            "dilatation": DILATATION,
        },
    ]


def jobs(workload: str, seed: int, workdir: Path) -> list[Job]:
    """The job list of a workload for one seed; writes any input files.

    ``trace`` is every job that works in the group ring of the free group:
    exact traces, then the interval search and the growth bounds.  ``zeta``
    is every job that bypasses it: twisted zetas, then the closed-form
    commands (series, torus, periodic zeta, assembler).
    """
    x = Inputs(seed)
    if workload == "trace":
        return [
            x.map_job("golden-trace-n8", "golden", "trace", "--n", "8"),
            x.map_job("cat-trace-n7", "cat", "trace", "--n", "7"),
            x.map_job("r3-trace-n7-nointerval", "r3", "trace", "--n", "7", "--no-interval"),
            x.map_job("r3-trace-n4", "r3", "trace", "--n", "4"),
            x.map_job("r3-trace-n5-depth2", "r3", "trace", "--n", "5", "--depth", "2"),
            x.map_job("golden-bounds", "golden", "bounds"),
            x.map_job("cat-bounds", "cat", "bounds"),
            x.map_job("r3-bounds-n4", "r3", "bounds", "--n", "4"),
        ]
    if workload == "zeta":
        workdir.mkdir(parents=True, exist_ok=True)
        class_file = workdir / "class.json"
        class_file.write_text(json.dumps({"genus": 2, "components": x.components}))
        dims = ",".join(str(3**n + 2**n) for n in range(1, 129))
        return [
            x.map_job("cat-zeta-m3", "cat", "zeta-twisted", "--modulus", "3", "--order", "16"),
            x.map_job("cat-zeta-m4", "cat", "zeta-twisted", "--modulus", "4"),
            x.map_job("r3-zeta-m2", "r3", "zeta-twisted", "--modulus", "2", "--order", "16"),
            Job("series-128", ("series", "--dims", dims, "--order", "128")),
            x.torus_job("torus-2111-n64", x.anosov, 64),
            x.torus_job("torus-5221-n20", x.anosov_big, 20),
            Job(
                "periodic-zeta-12",
                ("periodic-zeta", "--period", "12",
                 "--dims", "1:2,2:4,3:6,4:8,6:12,12:24", "--order", "128"),
            ),
            Job(
                "assemble-report",
                ("assemble", "--class", str(class_file), "--n", str(CLASS_ITERATES),
                 "--report", "--graph-test"),
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")
