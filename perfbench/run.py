"""floergrowth benchmark: real CLI jobs, each in a fresh process, all checked.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads are listed in workloads.py.  Load is a closed loop with a single
client: one job runs at a time, in a fresh ``python -m floergrowth.cli``
process, with FLOERGROWTH_THREADS unset.  A fresh process charges each job
what a user pays per command (interpreter start, import, parse, compute,
render) and keeps in-process caches from carrying over between jobs.

With --trace 0 the run repeats the workload's job list for about --seconds
and reports the end-to-end metrics.  The job list's wall time is reported
normalized by a clock loop (a fixed pure-Python integer loop timed before
every job), since on a shared host the CPU's speed can drift by 10-20%
from one minute to the next (see NOTES.md).  With --trace 1 it alternates
untraced passes with passes through traced.py and reports the per-layer
metrics plus the tracing overhead.  Every payload is checked against
reference.json (see checks.py).  The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
details (environment, per-job samples, failures).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"

SETUP_MIN_SAMPLES = 7
CLOCK_LOOP_ITERATIONS = 1_000_000
CLOCK_REF_S = 0.1  # wall_norm_s is job time on a machine where the clock loop takes this
JOB_CPU_LIMIT_S = 120  # a job past this much CPU time is killed and fails

E2E_UNITS = {
    "wall_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "interval_ratio": "ratio",
}

# span name -> what is reported for it: ".calls" (count), ".self_s" (s)
_SPAN_METRICS = {
    "freegroup.sort_key": ("calls", "self_s"),
    "freegroup.word_mul": ("calls", "self_s"),
    "freegroup.apply": ("calls", "self_s"),
    "freegroup.iterate": ("calls",),
    "foxcalc.ring_mul": ("calls", "self_s"),
    "foxcalc.ring_add": ("calls", "self_s"),
    "foxcalc.map_words": ("self_s",),
    "foxcalc.to_text": ("self_s",),
    "groupring.h_matmul": ("calls", "self_s"),
    "groupring.reidemeister_trace": ("calls",),
    "groupring.reidemeister_interval": ("calls",),
    "groupring.orbit_coordinate": ("calls", "self_s"),
    "groupring.norm_interval": ("self_s",),
    "groupring.reach_set": ("calls", "self_s"),
    "snf.smith_normal_form": ("calls", "self_s"),
    "reptheory.abelian_quotient_rep": ("self_s",),
    "reptheory.validate_rep": ("self_s",),
    "reptheory.twist_matrix": ("self_s",),
    "reptheory.word_matrix": ("calls", "self_s"),
    "reptheory.twisted_lefschetz": ("self_s",),
    "ratfunc.det_one_minus_t": ("calls", "self_s"),
    "ratfunc.from_parts": ("self_s",),
    "ratfunc.min_root_modulus": ("self_s",),
    "ratfunc.series": ("self_s",),
    "growth.full_report": ("self_s",),
    "growth.spectral_radius": ("calls", "self_s"),
    "zetafns.series_exp": ("self_s",),
    "zetafns.periodic_zeta": ("self_s",),
    "zetafns.radical_expand": ("self_s",),
    "zetafns.torus_symplectic_zeta": ("self_s",),
    "torus.fixed_point_count": ("calls", "self_s"),
    "mappingclass.assemble_dim": ("self_s",),
    "mappingclass.asymptotic_invariant": ("self_s",),
    "mappingclass.graph_manifold_test": ("self_s",),
    "cli.parse": ("self_s",),
    "cli.render": ("self_s",),
}

# metric name -> (unit, how combine_traced derives it from the summaries)
_OTHER_METRICS = {
    "freegroup.word_mul.letters_in": ("count", "counts"),
    "freegroup.word_mul.letters_cancelled": ("count", "counts"),
    "foxcalc.ring_mul.terms_out": ("count", "counts"),
    "groupring.reidemeister_trace.terms_out": ("count", "counts"),
    "groupring.reach_set.states": ("count", "counts"),
    "groupring.reach_set.capped": ("count", "counts"),
    "groupring.certified_share": ("ratio", "share"),
    "reptheory.block_dim": ("count", "maxima"),
    "ratfunc.det_one_minus_t.dim_max": ("count", "maxima"),
    "cli.render.bytes": ("bytes", "render_bytes"),
    "cli.import_s": ("s", "import_s"),
    "trace.overhead_s": ("s", "overhead"),
}


def _per_layer() -> dict[str, tuple[str, str]]:
    """Every per-layer metric: name -> (unit, how the traced run gives it)."""
    out = {}
    for span, kinds in _SPAN_METRICS.items():
        for kind in kinds:
            out[f"{span}.{kind}"] = ("s" if kind == "self_s" else "count", kind)
    return {**out, **_OTHER_METRICS}


PER_LAYER = _per_layer()


@dataclass
class Run:
    """One finished job process."""

    wall_s: float
    rss_kb: int
    problems: list[str]
    payload: dict | None = None


@dataclass
class Tally:
    """Per-job samples and failures over a benchmark run."""

    walls: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    rss_kb: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    sums: dict[str, tuple[int, int]] = field(default_factory=dict)

    def add(self, job: workloads.Job, run: Run) -> None:
        self.attempted += 1
        self.walls[job.name].append(run.wall_s)
        self.rss_kb = max(self.rss_kb, run.rss_kb)
        if run.problems:
            self.failures.append(f"{job.name}: {'; '.join(run.problems[:3])}")
        elif job.name not in self.sums:
            self.sums[job.name] = checks.interval_sums(run.payload)

    def wall_s(self) -> float:
        """Time for the job list once: the sum of per-job mean wall times.

        Means, not medians: the machine's speed switches between states, and
        a mean follows the share of time spent in each where a median of a
        few samples jumps from one state to the other."""
        return sum(statistics.fmean(w) for w in self.walls.values())


def child_env() -> dict[str, str]:
    """The caller's environment without FLOERGROWTH_THREADS or any PYTHON*
    setting (bytecode caching, hash seed, dev mode, ... all change timings)."""
    env = {
        k: v
        for k, v in os.environ.items()
        if k != "FLOERGROWTH_THREADS" and not k.startswith("PYTHON")
    }
    env["PYTHONPATH"] = str(SRC)
    return env


def _limit_cpu():
    resource.setrlimit(resource.RLIMIT_CPU, (JOB_CPU_LIMIT_S, JOB_CPU_LIMIT_S))


def spawn(argv: list[str], env: dict[str, str]) -> tuple[float, int, int, str, str]:
    """Run one process to completion: (wall s, peak RSS KiB, exit code, out, err)."""
    WORK.mkdir(exist_ok=True)
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=env, cwd=ROOT, preexec_fn=_limit_cpu
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    text = lambda p: p.read_text(errors="replace")
    return wall, usage.ru_maxrss, code, text(out_path), text(err_path)


def run_job(job: workloads.Job, ref: dict, env: dict, traced_summary: Path | None = None) -> Run:
    if traced_summary is None:
        argv = [sys.executable, "-m", "floergrowth.cli", *job.argv]
    else:
        argv = [sys.executable, str(HERE / "traced.py"), str(traced_summary), *job.argv]
    wall, rss, code, out, err = spawn(argv, env)
    if code != 0:
        return Run(wall, rss, [f"exit code {code}: {err.strip()[-200:]}"])
    if "Traceback" in err:
        return Run(wall, rss, [f"traceback: {err.strip()[-200:]}"])
    try:
        payload = json.loads(out)
    except ValueError:
        return Run(wall, rss, ["stdout is not JSON"])
    if not isinstance(payload, dict):
        return Run(wall, rss, ["stdout is not a JSON object"])
    try:
        found = checks.problems(job, payload, ref[job.name])
    except Exception as e:  # a payload of unexpected shape fails its job, not the run
        found = [f"check failed on the payload: {e!r}"]
    return Run(wall, rss, found, payload)


def clock_loop() -> float:
    """Wall time of a fixed pure-Python integer loop, run in this process.

    It probes how fast the machine runs Python at the moment, and uses
    nothing from floergrowth, so no change to the program can move it."""
    start = time.perf_counter()
    total = 0
    for i in range(CLOCK_LOOP_ITERATIONS):
        total += i * i % 7
    return time.perf_counter() - start


def time_import(env: dict) -> float:
    """Wall time of a fresh process that imports floergrowth.cli and exits."""
    argv = [sys.executable, "-c", "import floergrowth.cli"]
    wall, _, code, _, err = spawn(argv, env)
    if code != 0:
        raise RuntimeError(f"importing floergrowth.cli failed: {err.strip()[-300:]}")
    return wall


def combine_traced(summaries: list[dict], overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass: one summary per job."""
    total = dict.fromkeys(PER_LAYER, 0.0)
    total.update({"groupring.intervals": 0, "groupring.certified": 0})
    for s in summaries:
        for name, (_, how) in PER_LAYER.items():
            if how in ("calls", "self_s"):
                total[name] += s[how].get(name.rpartition(".")[0], 0)
            elif how == "counts":
                total[name] += s["counts"].get(name, 0)
            elif how == "maxima":
                total[name] = max(total[name], s["maxima"].get(name, 0))
            elif how in ("render_bytes", "import_s"):
                total[name] += s[how]
        for key in ("groupring.intervals", "groupring.certified"):
            total[key] += s["counts"].get(key, 0)
    intervals = total.pop("groupring.intervals")
    certified = total.pop("groupring.certified")
    total["groupring.certified_share"] = certified / intervals if intervals else 0.0
    total["trace.overhead_s"] = overhead_s
    return dict(total)


def traced_pass(jobs, ref, env, tally: Tally) -> list[dict]:
    """Run every job once through traced.py; returns the jobs' summaries."""
    summaries = []
    for job in jobs:
        path = WORK / f"trace-{job.name}.json"
        path.unlink(missing_ok=True)
        tally.add(job, run_job(job, ref, env, traced_summary=path))
        if path.exists():
            summaries.append(json.loads(path.read_text()))
    return summaries


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        commit = head.read_text().strip()
        if commit.startswith("ref: "):
            ref = ROOT / ".git" / commit[5:]
            commit = ref.read_text().strip() if ref.is_file() else commit
    src = hashlib.sha256()
    for path in sorted((SRC / "floergrowth").rglob("*.py")):
        src.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "commit": commit,
        "src_sha256": src.hexdigest(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "floergrowth" / "cli.py").is_file():
        print(f"error: no program source at {SRC}/floergrowth", file=sys.stderr)
        return 2
    ref = json.loads(REFERENCE.read_text())["jobs"]
    env = child_env()
    jobs = workloads.jobs(args.workload, args.seed, WORK)
    time_import(env)  # warm-up: the first import may write bytecode caches

    untraced, traced = Tally(), Tally()
    layer_samples: list[list[dict]] = []
    setup: list[float] = []
    clock: list[float] = []
    start = time.perf_counter()
    elapsed = lambda: time.perf_counter() - start
    passes = 0
    # A clock-loop sample precedes every untraced job and a set-up sample
    # every second one, so both are taken across the whole run.  Untraced
    # runs stop at the first job boundary past --seconds.  Traced runs need
    # whole passes: they start one only if it should end within half a pass
    # of --seconds.
    while passes == 0 or (
        elapsed() < args.seconds
        if not args.trace
        else elapsed() * (1 + 0.5 / passes) < args.seconds
    ):
        for i, job in enumerate(jobs):
            if passes and not args.trace and elapsed() >= args.seconds:
                break
            if i % 2 == 0:
                setup.append(time_import(env))
            clock.append(clock_loop())
            untraced.add(job, run_job(job, ref, env))
        if args.trace:
            layer_samples.append(traced_pass(jobs, ref, env, traced))
        passes += 1
    while len(setup) < SETUP_MIN_SAMPLES:
        setup.append(time_import(env))
    failures = untraced.failures + traced.failures

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "load": "closed loop, one client, one job process at a time",
        "passes": passes,
        "wall_s": untraced.wall_s(),
        "clock_s_mean": statistics.fmean(clock),
        "jobs": {
            name: {"wall_s_mean": statistics.fmean(w), "wall_s": w}
            for name, w in untraced.walls.items()
        },
        "setup_s_samples": setup,
        "clock_s_samples": clock,
        "failures": failures[:20],
    }
    lo = sum(s[0] for s in untraced.sums.values())
    hi = sum(s[1] for s in untraced.sums.values())
    if args.trace:
        overhead = traced.wall_s() - untraced.wall_s()
        per_pass = [combine_traced(s, overhead) for s in layer_samples]
        values = {k: statistics.median(p[k] for p in per_pass) for k in PER_LAYER}
        detail["missing_bindings"] = sorted({b for p in layer_samples for s in p for b in s["missing"]})
        detail["traced_wall_s"] = traced.wall_s()
    else:
        values = {
            "wall_norm_s": untraced.wall_s() * CLOCK_REF_S / statistics.fmean(clock),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": untraced.rss_kb / 1024,
            "ok_frac": 1 - len(untraced.failures) / untraced.attempted,
            "interval_ratio": (1 + hi) / (1 + lo),
        }
        detail["interval_gap"] = hi - lo
    units = {**{k: u for k, (u, _) in PER_LAYER.items()}, **E2E_UNITS}
    result = {
        "correct": not failures,
        "attempted": untraced.attempted + traced.attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    for line in failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
