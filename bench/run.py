"""Benchmark of the evidim pipeline, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from anywhere; paths resolve against the checkout that holds this file.
Stdlib only.  evidim is driven through its public surface: ``cli.main(argv)``
in-process with stdout and stderr captured, plus the public library
functions for the ``roundtrip`` chain.  All load comes from one process and
one thread, as a closed loop with one client: the next op starts when the
previous one has returned.  GC stays enabled, as users run the program.

A run:

1. generates the workload's inputs from the seed (``gen.py``, in a process
   of its own so that its memory stays out of ``peak_rss_mb``);
2. with ``--trace 0``, measures ``setup_s``: the median time to
   ``import evidim.cli`` in several fresh interpreters, each divided by the
   host slowness that calibration slices (``calibrate.py``) measure around it;
3. warms up with about a second of untimed ops, then loops over the
   workload's ops, in whole cycles, until ``--seconds`` have passed,
   checking every output (warm-up included) against ``reference.py``.  With
   ``--trace 0``, slices of a fixed calibration kernel (``calibrate.py``)
   run between the ops and measure how slow the shared host is around each
   op; the ``_norm`` metrics divide each op's time by that slowness, so that
   they follow the program rather than the host's changing speed;
4. with ``--trace 1``, first runs the loop untraced for half the time, then
   traced for the other half with spans recorded at each module boundary
   (``tracing.py``), and reports per-layer means per op;
5. prints each metric by name and unit (the raw ``ops_per_s``,
   ``op_p50_ms`` and ``op_p90_ms`` too), then, as the last line, one JSON
   object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
   full result, with provenance and (traced) spans, goes to
   ``.bench_work/results/``.

An op fails when its exit code or output disagrees with the reference, or
when an exception escapes the program.  Failures of the inputs that
``gen.KNOWN_DEFECTS`` lists count in ``failed`` (they are real defects) but
do not make ``correct`` false; any other failure does.

``--smoke`` runs every workload once, at small sizes, untraced and traced, in
a few seconds.  Every invocation first checks that the references catch a
report perturbed by 1e-6 and refuses to run otherwise.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

# Why each workload exists: each puts the cost in a different layer.
WORKLOADS = {
    "compute-powerset": "compute on N=16 full power sets (6.5 MB): JSON parse and "
                        "Frame/Subset/MassFunction construction dominate",
    "sweep-wide": "sweep max-deng and uniform-powerset over N=1..512: families and "
                  "profile validation (big-integer comb) dominate, no JSON parsing",
    "compute-small": "compute on small sparse files, malformed files and the paper-table "
                     "sweeps: per-call fixed cost (parser, validation, oracle) dominates",
    "roundtrip": "profile -> to_mass -> mass_to_json -> mass_from_json -> to_profile at "
                 "N=15: core expansion and serialization, the write direction",
}

END_TO_END = {"setup_s": "s", "ops_per_s_norm": "1/s", "op_p50_ms_norm": "ms", "peak_rss_mb": "MB"}

# Spans whose self time is reported as "<span>_ms", in report order.
SPANS = (
    "core.mass_from_json", "core.from_assignments", "core.profile_build",
    "core.to_mass", "core.mass_to_json", "core.to_profile", "families.profile",
    "entropy.deng_entropy", "entropy.deng_entropy_profile",
    "dimension.split_scale", "dimension.information_dimension",
    "dimension.split_scale_profile", "dimension.information_dimension_profile",
    "oracle.brute_force_report", "oracle.compare_reports",
    "experiments.run_convergence", "experiments.render", "experiments.detect_limit",
)
PER_LAYER = {
    "cli.main_ms": "ms", "cli.self_ms": "ms",
    **{f"{span}_ms": "ms" for span in SPANS},
    "core.json_loads_ms": "ms", "core.focal_sets": "count", "core.rejected_inputs": "count",
    "families.rows": "count", "experiments.rows_above_supremum": "count",
    "experiments.non_monotone_rows": "count", "trace.overhead_ratio": "ratio",
}

SETUP_RUNS = 9
WARM_UP_S = 1.0
# Calibration slices (calibrate.py) run before the first op and after the
# ops for about this share of their time, at least once per CAL_EVERY_S of
# op time.
CAL_SHARE = 0.05
CAL_EVERY_S = 0.5
PERTURBATION = 1e-6


class BenchmarkError(Exception):
    """The benchmark itself cannot run: no result is printed."""


# ---------------------------------------------------------------- provenance

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit() -> str | None:
    """HEAD of the checkout, when it is a git work tree of its own."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True, env=env,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return None
    return out[1] if len(out) == 2 and Path(out[0]).resolve() == ROOT else None


def _source_digest() -> str:
    """SHA-256 over the program's sources, which identifies the measured code
    where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "evidim").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(seed: int | None) -> dict:
    return {
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "seed": seed,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "gc_enabled": gc.isenabled(),
    }


# ------------------------------------------------------------- set-up, inputs

def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def measure_setup(runs: int = SETUP_RUNS) -> list[tuple[float, float]]:
    """(seconds to import evidim.cli, host slowness) in fresh interpreters;
    one unmeasured import first writes the bytecode cache, as an install
    would.  Each import is bracketed by calibration slices (calibrate.py),
    whose mean time over calibrate.REFERENCE_S is the host's slowness."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); import calibrate; "
             "before = calibrate.slice_seconds(); t = time.perf_counter(); "
             "import evidim.cli; took = time.perf_counter() - t; "
             "after = calibrate.slice_seconds(); "
             "print(repr(took), repr((before + after) / 2 / calibrate.REFERENCE_S))")
    samples = []
    for i in range(runs + 1):
        out = subprocess.run([sys.executable, "-c", probe, str(BENCH)], env=_env(), cwd=ROOT,
                             capture_output=True, text=True, timeout=60)
        if out.returncode != 0:
            raise BenchmarkError(f"import evidim.cli failed:\n{out.stderr}")
        if i:
            took, slowness = map(float, out.stdout.split())
            samples.append((took, slowness))
    return samples


def generate(workload: str, seed: int, out: Path, smoke: bool) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    cmd = [sys.executable, str(BENCH / "gen.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)] + (["--smoke"] if smoke else [])
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise BenchmarkError(f"input generation failed:\n{done.stderr}")
    return json.loads((out / "manifest.json").read_text(encoding="utf-8"))


def load_program():
    if not (SRC / "evidim" / "__init__.py").is_file():
        raise BenchmarkError(f"no evidim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import evidim
    import evidim.cli
    if Path(evidim.__file__).resolve().parent != SRC / "evidim":
        raise BenchmarkError(f"imported evidim from {evidim.__file__}, not {SRC}")
    return evidim


# ------------------------------------------------------------------ the ops

@dataclass
class Outcome:
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    report: tuple | None = None
    error: str | None = None


@dataclass
class Loop:
    """Counters of one closed-loop run."""

    latencies: list[float] = field(default_factory=list)
    wall: float = 0.0
    failed: int = 0
    unexpected: list[str] = field(default_factory=list)
    known: dict[str, int] = field(default_factory=dict)
    rejected: int = 0
    focal_sets: int = 0
    json_loads: float = 0.0
    # per family, one (rows above the supremum, non-monotone steps) per sweep
    sweep_defects: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    # host calibration (calibrate.py): every slice time, the host's slowness
    # charged to each op, and the loop's busy time at reference speed
    calibration: list[float] = field(default_factory=list)
    slowness: list[float] = field(default_factory=list)
    busy_at_reference: float = 0.0
    _slowness_before: float | None = None

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def ops_per_s(self) -> float:
        """Ops per second of the loop's busy time: calibration excluded."""
        return self.attempted / (self.wall - math.fsum(self.calibration))

    def calibrate(self, busy: float, owed: float):
        """Runs calibration slices until ``owed`` seconds are paid (at least
        one slice).  The ops since the last calibration, whose loop time was
        ``busy``, ran between that calibration and this one: each is charged
        the mean of the two median slowness figures (slice time over
        calibrate.REFERENCE_S).  The first call, before any op, only
        measures."""
        slices = []
        while not slices or owed > 0.0:
            slices.append(calibrate.slice_seconds())
            owed -= slices[-1]
        self.calibration += slices
        after = statistics.median(slices) / calibrate.REFERENCE_S
        before, self._slowness_before = self._slowness_before, after
        if before is None:
            return
        slowness = (before + after) / 2.0
        self.slowness += [slowness] * (self.attempted - len(self.slowness))
        self.busy_at_reference += busy / slowness


class Runner:
    """Executes ops against the program and checks them against references."""

    def __init__(self, evidim, ops: list[dict], workdir: Path):
        self.evidim = evidim
        self.ops = ops
        for op in ops:
            if "file" in op:
                op["path"] = str(workdir / op["file"])
                op["argv"] = [op["path"] if a == op["file"] else a for a in op["argv"]]
        self.json_loads_s: dict[str, float] = {}

    def execute(self, op: dict, tracer: tracing.Tracer | None) -> Outcome:
        if "roundtrip" in op:
            return self._roundtrip(*op["roundtrip"])
        outcome = Outcome()
        out, err = io.StringIO(), io.StringIO()
        main = self.evidim.cli.main
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    outcome.code = main(op["argv"])
                else:
                    outcome.code = tracer.call("cli.main", main, op["argv"])
        except Exception as exc:  # the program must not raise; record and go on
            outcome.error = f"{type(exc).__name__} escaped cli.main: {exc}"
        outcome.stdout, outcome.stderr = out.getvalue(), err.getvalue()
        return outcome

    def _roundtrip(self, family: str, n: int) -> Outcome:
        ev = self.evidim
        try:
            profile = ev.family_profile(family, n)
            text = ev.mass_to_json(profile.to_mass())
            back = ev.mass_from_json(text).to_profile()
            r = ev.information_dimension_profile(back)
        except Exception as exc:  # the program must not raise; record and go on
            return Outcome(error=f"{type(exc).__name__} escaped the roundtrip: {exc}")
        return Outcome(code=0, report=(r.entropy_bits, r.split_scale_bits, r.dimension,
                                       r.degenerate))

    def check(self, op: dict, outcome: Outcome, loop: Loop) -> str | None:
        """None when the outcome matches the op's reference."""
        expect = op["expect"]
        if outcome.error:
            return outcome.error
        if outcome.code != expect["exit"]:
            return f"exit {outcome.code}, expected {expect['exit']}: {outcome.stderr.strip()[:200]}"
        if outcome.code == 2:
            loop.rejected += 1
            return None
        if "golden" in expect:
            return golden_mismatch(outcome.stdout, expect["golden"])
        if outcome.report is None:
            try:
                payload = json.loads(outcome.stdout)
            except ValueError as exc:
                return f"stdout is not JSON: {exc}"
            if "sweep" in expect:
                return self._check_sweep(expect["sweep"], payload, loop)
            keys = ("entropy_bits", "split_scale_bits", "dimension", "degenerate")
            if not isinstance(payload, dict) or not all(k in payload for k in keys):
                return f"report lacks one of {keys}"
            outcome.report = tuple(payload[k] for k in keys)
        return reference.report_mismatch(outcome.report, tuple(expect["report"]))

    def _check_sweep(self, expect: dict, payload, loop: Loop) -> str | None:
        try:
            rows = [(r["N"], r["entropy_bits"], r["split_scale_bits"], r["dimension"])
                    for r in payload["rows"]]
            verdict = dict(payload["verdict"])
        except (KeyError, TypeError, ValueError) as exc:
            return f"sweep JSON lacks rows or verdict: {exc!r}"
        if len(rows) != len(expect["rows"]):
            return f"{len(rows)} rows, expected {len(expect['rows'])}"
        for got, want in zip(rows, expect["rows"]):
            if got[0] != want[0]:
                return f"row N={got[0]}, expected N={want[0]}"
            problem = reference.report_mismatch((*got[1:], False), (*want[1:], False))
            if problem:
                return f"N={got[0]}: {problem}"
        # the rows are verified; the verdict is recomputed from them
        want = reference.verdict([(r[0], r[3]) for r in rows], expect["window"],
                                 expect["tolerance"])
        for key in ("converged", "achieved_at_n", "tolerance"):
            if verdict.get(key) != want[key]:
                return f"verdict {key} {verdict.get(key)!r} != {want[key]!r}"
        limit = verdict.get("limit_estimate")
        if not isinstance(limit, float) or not reference.close(limit, want["limit_estimate"]):
            return f"verdict limit_estimate {limit!r} != {want['limit_estimate']!r}"
        family, dims = expect["family"], [r[3] for r in rows]
        loop.sweep_defects.setdefault(family, []).append(
            (reference.above_supremum(family, dims), reference.non_monotone(dims)))
        return None

    def time_json_loads(self):
        """Raw json.loads of each input file: the lower bound for parsing."""
        for op in self.ops:
            path = op.get("path")
            if path is None or path in self.json_loads_s:
                continue
            text = Path(path).read_text(encoding="utf-8")
            runs = []
            for _ in range(3):
                start = perf_counter()
                try:
                    json.loads(text)
                except ValueError:
                    pass
                runs.append(perf_counter() - start)
            self.json_loads_s[path] = statistics.median(runs)

    def loop(self, seconds: float, tracer: tracing.Tracer | None = None,
             calibrate_host: bool = False) -> Loop:
        """Whole cycles over the op list until ``seconds`` have passed (at
        least one cycle), so every run holds the same mix of ops.  With
        ``calibrate_host``, calibration slices precede the ops and follow
        them for about CAL_SHARE of their time, at least every CAL_EVERY_S
        of op time."""
        loop = Loop()
        start = perf_counter()
        if calibrate_host:
            loop.calibrate(0.0, CAL_EVERY_S * CAL_SHARE)
        mark, owed = perf_counter(), 0.0
        while True:
            for op in self.ops:
                self._run_op(op, loop, tracer)
                if calibrate_host:
                    owed += loop.latencies[-1] * CAL_SHARE
                    if owed >= CAL_EVERY_S * CAL_SHARE:
                        loop.calibrate(perf_counter() - mark, owed)
                        owed, mark = 0.0, perf_counter()
            if perf_counter() - start >= seconds:
                break
        if calibrate_host and len(loop.slowness) < loop.attempted:
            loop.calibrate(perf_counter() - mark, owed)
        loop.wall = perf_counter() - start
        return loop

    def warm_up(self, seconds: float = WARM_UP_S) -> Loop:
        """Untimed ops from the start of the cycle until ``seconds`` have
        passed: at least one op, at most one cycle.  Lazy set-up and the
        interpreter's caches are then done before timing starts."""
        loop = Loop()
        start = perf_counter()
        for op in self.ops:
            self._run_op(op, loop, None)
            if perf_counter() - start >= seconds:
                break
        loop.wall = perf_counter() - start
        return loop

    def _run_op(self, op: dict, loop: Loop, tracer: tracing.Tracer | None):
        if tracer is not None:
            tracer.op = loop.attempted
        t0 = perf_counter()
        outcome = self.execute(op, tracer)
        loop.latencies.append(perf_counter() - t0)
        loop.focal_sets += op.get("focal_sets", 0)
        loop.json_loads += self.json_loads_s.get(op.get("path"), 0.0)
        problem = self.check(op, outcome, loop)
        if problem is None:
            return
        loop.failed += 1
        known = op["expect"].get("known_defect")
        if known:
            loop.known[known] = loop.known.get(known, 0) + 1
        else:
            loop.unexpected.append(f"{_describe(op)}: {problem}")


def golden_mismatch(stdout: str, name: str) -> str | None:
    """None when the output is byte-identical to the golden table."""
    if stdout.encode("utf-8") == (BENCH / "golden" / name).read_bytes():
        return None
    return f"differs from golden {name}"


def _describe(op: dict) -> str:
    if "roundtrip" in op:
        return "roundtrip " + " ".join(map(str, op["roundtrip"]))
    return "evidim " + " ".join(Path(a).name if a == op.get("path") else a for a in op["argv"])


# ------------------------------------------------------------------ metrics

def end_to_end(loop: Loop, setup: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    latencies = sorted(loop.latencies)
    n = len(latencies)
    at_reference = [lat / slow for lat, slow in zip(loop.latencies, loop.slowness)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": statistics.median(took / slowness for took, slowness in setup),
        "ops_per_s_norm": n / loop.busy_at_reference,
        "op_p50_ms_norm": statistics.median(at_reference) * 1e3,
        "peak_rss_mb": rss_mb,
    }
    slowness = statistics.quantiles(loop.slowness, n=4) if n > 1 else loop.slowness * 3
    lines = [
        f"setup_s         {metrics['setup_s']:.4f} s     at reference host speed, median of "
        f"{len(setup)} fresh interpreters; raw median "
        f"{statistics.median(took for took, _ in setup):.4f} s",
        f"ops_per_s       {loop.ops_per_s:.4f} 1/s   {n} ops in {loop.wall:.2f} s, "
        f"closed loop, 1 client, {math.fsum(loop.calibration):.2f} s of it calibration",
        f"op_p50_ms       {statistics.median(latencies) * 1e3:.4f} ms    n={n}",
    ]
    if n >= 100:
        p90 = statistics.quantiles(latencies, n=10)[8] * 1e3
        lines.append(f"op_p90_ms       {p90:.4f} ms    n={n}")
    else:
        lines.append(f"op_p90_ms       undefined   n={n}, fewer than 100 ops")
    lines += [
        f"fail_ratio      {loop.failed / n:.4f}       {loop.failed} of {n} ops failed, "
        f"{loop.failed - len(loop.unexpected)} of them known defects",
        f"peak_rss_mb     {rss_mb:.4f} MB    process running the timed loop",
        f"ops_per_s_norm  {metrics['ops_per_s_norm']:.4f} 1/s   at reference host speed",
        f"op_p50_ms_norm  {metrics['op_p50_ms_norm']:.4f} ms    at reference host speed, n={n}",
        f"host slowness   {slowness[1]:.3f} median, {slowness[0]:.3f}-{slowness[2]:.3f} "
        f"quartiles, over {len(loop.calibration)} calibration slices",
    ]
    return metrics, lines


def _sweep_defect_total(loop: Loop, which: int) -> int:
    return sum(counts[which] for runs in loop.sweep_defects.values() for counts in runs)


def per_layer(traced: Loop, untraced: Loop, tracer: tracing.Tracer,
              absent: list[str]) -> tuple[dict, list[str], list[str]]:
    ops = traced.attempted
    self_s, total_s = tracer.self_times(), tracer.total_times()
    metrics = {
        "cli.main_ms": total_s.get("cli.main", 0.0) / ops * 1e3,
        "cli.self_ms": self_s.get("cli.main", 0.0) / ops * 1e3,
        **{f"{span}_ms": self_s.get(span, 0.0) / ops * 1e3 for span in SPANS},
        "core.json_loads_ms": traced.json_loads / ops * 1e3,
        "core.focal_sets": traced.focal_sets / ops,
        "core.rejected_inputs": traced.rejected / ops,
        "families.rows": tracer.counts.get("families.rows", 0) / ops,
        "experiments.rows_above_supremum": _sweep_defect_total(traced, 0) / ops,
        "experiments.non_monotone_rows": _sweep_defect_total(traced, 1) / ops,
        "trace.overhead_ratio": traced.ops_per_s / untraced.ops_per_s,
    }
    missing = [f"{span}_ms" for span in absent]
    if "families.profile" in absent:
        missing.append("families.rows")
    lines = [f"{name:44s} {value:14.6f} {PER_LAYER[name]}"
             + ("   absent at this commit" if name in missing else "")
             for name, value in metrics.items()]
    lines.append(f"means per op over {ops} traced ops, {len(tracer.spans)} spans; "
                 f"untraced {untraced.attempted} ops at {untraced.ops_per_s:.4f} 1/s; "
                 "_ms are self times, cli.main_ms is inclusive")
    return metrics, lines, missing


# ------------------------------------------------------------------ driving

def self_check() -> list[str]:
    """Each reference must accept itself and catch a 1e-6 perturbation."""
    problems = []
    reports = {
        "explicit": reference.explicit_report([(1, 0.25), (2, 0.25), (3, 0.5)]),
        "max-deng N=64": reference.family_report("max-deng", 64),
        "uniform-powerset N=64": reference.family_report("uniform-powerset", 64),
    }
    for name, report in reports.items():
        if reference.report_mismatch(report, report) is not None:
            problems.append(f"{name} reference rejects itself")
        for i in range(3):
            bent = list(report)
            bent[i] += PERTURBATION
            if reference.report_mismatch(tuple(bent), report) is None:
                problems.append(f"{name} reference misses field {i} off by {PERTURBATION}")
    golden = (BENCH / "golden" / "table4.csv").read_text(encoding="utf-8")
    if golden_mismatch(golden, "table4.csv") is not None:
        problems.append("golden table rejects itself")
    last = golden.rstrip("\n")[-1]
    bent = golden.rstrip("\n")[:-1] + ("1" if last != "1" else "2") + "\n"
    if golden_mismatch(bent, "table4.csv") is None:
        problems.append("golden check misses a changed digit")
    return problems


def _record(name: str, result: dict, spans: list | None = None):
    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.json").write_text(json.dumps(result, indent=1), encoding="utf-8")
    if spans is not None:
        payload = {"fields": ["op", "name", "start", "end", "parent"], "spans": spans}
        (out / f"{name}-spans.json").write_text(json.dumps(payload), encoding="utf-8")


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    tag = f"{'smoke-' if smoke else ''}{workload}-seed{seed}-trace{int(trace)}"
    workdir = WORK / "inputs" / tag
    evidim = load_program()
    try:
        manifest = generate(workload, seed, workdir, smoke)
        setup = [] if trace else measure_setup(1 if smoke else SETUP_RUNS)
        runner = Runner(evidim, manifest["ops"], workdir)
        info = {"workload": workload, "why": WORKLOADS[workload], "seconds": seconds,
                "trace": trace, "input": manifest["input"],
                "provenance": provenance(seed), "ops_per_cycle": len(runner.ops)}
        warm_up = runner.warm_up()
        spans = None
        if trace:
            untraced = runner.loop(seconds / 2)
            runner.time_json_loads()
            tracer = tracing.Tracer()
            with tracing.installed(tracer) as absent:
                loop = runner.loop(seconds / 2, tracer)
            metrics, lines, missing = per_layer(loop, untraced, tracer, absent)
            info["absent"] = missing
            spans = tracer.spans
            loops = (warm_up, untraced, loop)
        else:
            loop = runner.loop(seconds, calibrate_host=True)
            metrics, lines = end_to_end(loop, setup)
            info["setup_runs"] = setup
            info["latencies_s"] = loop.latencies
            info["calibration_s"] = loop.calibration
            info["slowness"] = loop.slowness
            loops = (warm_up, loop)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    unexpected = [u for lp in loops for u in lp.unexpected]
    known: dict[str, int] = {}
    for lp in loops:
        for defect, count in lp.known.items():
            known[defect] = known.get(defect, 0) + count
    info.update({
        "correct": not unexpected, "attempted": attempted, "failed": failed,
        "known_defects": known, "unexpected_failures": unexpected[:50],
        # per sweep; deterministic, so the last sweep of each family stands for all
        "sweep_defects": {family: runs[-1] for family, runs in loop.sweep_defects.items()},
        "metrics": {k: {"value": v, "unit": {**END_TO_END, **PER_LAYER}[k]}
                    for k, v in metrics.items()},
        "report": lines,
    })
    _record(tag, info, spans)
    return info


def _print_human(info: dict):
    size = info["input"]
    print(f"evidim benchmark: workload={info['workload']} trace={int(info['trace'])} "
          f"seconds={info['seconds']}")
    print(f"  why: {info['why']}")
    print(f"  provenance: {json.dumps(info['provenance'])}")
    print(f"  input: {size['files']} files, {size['bytes']} bytes, "
          f"{size['focal_sets']} focal sets; {size['notes']}; "
          f"{info['ops_per_cycle']} ops per cycle")
    for line in info["report"]:
        print("  " + line)
    for defect, count in info["known_defects"].items():
        print(f"  known defect, failed {count}x: {defect}")
    for family, (above, non_monotone) in sorted(info["sweep_defects"].items()):
        print(f"  known defect: each {family} sweep has {above} rows above the supremum "
              f"{reference.SUPREMUM[family]:.6f} and {non_monotone} non-monotone steps")
    for problem in info["unexpected_failures"]:
        print(f"  FAILED: {problem}")


def smoke() -> int:
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            start = perf_counter()
            info = run(workload, 1, 0.0, trace, smoke=True)
            ok &= info["correct"]
            print(f"{'PASS' if info['correct'] else 'FAIL'} {workload:17s} trace={int(trace)} "
                  f"{info['attempted']:4d} ops, {info['failed']} failed "
                  f"({sum(info['known_defects'].values())} known defects) "
                  f"in {perf_counter() - start:.2f} s")
            for problem in info["unexpected_failures"][:5]:
                print(f"     {problem}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="evidim end-to-end and per-layer benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at small sizes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    try:
        problems = self_check()
        if problems:
            raise BenchmarkError("reference self-check failed: " + "; ".join(problems))
        if args.smoke:
            return smoke()
        info = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchmarkError, OSError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    _print_human(info)
    print(json.dumps({
        "correct": info["correct"],
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": info["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
