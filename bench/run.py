"""bmameta benchmark: three CLI workloads, end to end and layer by layer.

Usage, from the repository root::

    python3 bench/run.py --workload analyze|rank|fit-priors --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   # every metric, both modes

Each run imports the package from ``src/`` and calls ``bmameta.cli.main``
in-process with one worker.  Inputs are generated from ``--seed`` and
written to ``.bench_out/`` before timing starts; outputs are checked
after it ends.  The last stdout line is the JSON result; the lines
before it list every metric with its unit and sample count.

``--trace 0`` cycles through the workload's operations for ``--seconds``
(``BENCHMARK.json`` runs it with 25) and reports:

* ``setup_s``: median of cold ``import bmameta`` plus the first catalog
  load, in fresh interpreters;
* ``cmp_per_s``: comparisons per second of a typical operation.  An
  operation is one ``analyze`` call (one comparison of the pool), one
  sweep of ``rank`` over its four modes, or one ``fit-priors`` call.
  Each operation's time is the median over its repeats, and the metric is
  the median over operations of comparisons / time: on ``analyze`` about
  the reciprocal of the median call time over the fixed pool, on
  ``rank`` and ``fit-priors`` corpus comparisons per second;
* ``success_frac``: 1 - failed / attempted, where a failure is a
  nonzero exit, an exception, a ``rank`` ``n_failed`` entry or a failed
  output check (``rank`` attempts count comparisons, the others calls);
* ``peak_rss_mb``: peak resident memory of the run.

``--trace 1`` runs each call of a fixed, seed-determined list untraced
and traced, and reports the per-layer metrics of :mod:`tracing`.
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
import traceback
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("analyze", "rank", "fit-priors")
#: Seed never used while tuning; a claimed gain must also hold on it.
HOLDOUT_SEED = 8117
SETUP_REPS = 3
SETUP_CODE = (
    "import time; t = time.perf_counter(); import bmameta; "
    "bmameta.catalog.pooled_entry(); print(time.perf_counter() - t)"
)
#: CLI calls per traced run: six analyze calls, one rank sweep, three fit-priors calls.
TRACED_UNITS = {"analyze": 6, "rank": 1, "fit-priors": 3}
END_TO_END = {
    "setup_s": "s",
    "cmp_per_s": "1/s",
    "success_frac": "fraction",
    "peak_rss_mb": "MB",
}


def measure_setup() -> list:
    """Cold ``import bmameta`` plus the first catalog load, in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"set-up failed:\n{proc.stderr}")
        times.append(float(proc.stdout))
    return times


@dataclass
class Result:
    """What one run reports: metric values, units, sample counts and checks."""

    metrics: dict
    units: dict
    samples: dict
    attempted: int
    failed: int
    problems: list
    notes: list
    moves: dict = field(default_factory=dict)


@dataclass
class Unit:
    """One measured operation: one CLI call, or the four calls of a rank sweep."""

    ops: list
    n_comparisons: int


class Run:
    """Executes units through ``cli.main`` and checks what they wrote."""

    def __init__(self, workload: str, seed: int, workdir: str):
        import numpy as np

        import workloads

        self.workload = workload
        self.workdir = workdir
        self.calls = []          # (op, out path, exit code) per CLI call, in order
        rng = np.random.default_rng(seed)
        # Warm-up calls run untimed before the first unit; their outputs
        # are checked like the rest.
        if workload == "analyze":
            self.units = [Unit([op], 1) for op in workloads.analyze_ops(rng, workdir)]
            for unit in self.units[:2]:
                unit.ops[0].meta["oracle"] = True
            self.warmup = [Unit([op], 1) for op in self._reference_ops()]
        elif workload == "rank":
            ops = workloads.rank_ops(rng, workdir)
            self.units = [Unit(ops, ops[0].n_comparisons)]
            self.warmup = [Unit(ops[:1], ops[0].n_comparisons)]
        else:
            op = workloads.fit_op(rng, workdir)
            self.units = [Unit([op], op.n_comparisons)]
            self.warmup = self.units[:1]

    def _reference_ops(self):
        from checks import REFERENCE

        from workloads import analyze_op, load_json

        ops = []
        for i, entry in enumerate(load_json(REFERENCE)["panel"]):
            ops.append(analyze_op(self.workdir, f"ref{i}", entry["studies"], entry["topic"]))
            ops[-1].meta["expected"] = entry["expected"]
        return ops

    def execute(self, unit: Unit) -> float:
        """Run the unit's CLI calls; returns their wall time."""
        from bmameta import cli

        wall = 0.0
        for op in unit.ops:
            out = f"{op.out[:-5]}.{len(self.calls)}.json"
            argv = list(op.argv)
            argv[argv.index("--out") + 1] = out
            start = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed operation, not a benchmark error
                traceback.print_exc()
                code = None
            wall += time.perf_counter() - start
            self.calls.append((op, out, code))
        return wall

    def check(self) -> tuple:
        """(attempted, failed, problems) over every CLI call made.

        The first output of each analyze comparison is also compared with
        reference.json (panel comparisons) or with the oracle (the first
        two pool comparisons).
        """
        import checks
        from workloads import load_json

        attempted = failed = 0
        problems = []
        seen = set()
        for op, out, code in self.calls:
            size = op.n_comparisons if op.argv[0] == "rank" else 1
            attempted += size
            if code != 0:
                failed += size
                problems.append(f"{' '.join(op.argv[:2])}: exit code {code}")
                continue
            n_failed = 0
            if op.argv[0] == "analyze":
                report = load_json(out)
                found = checks.check_analyze(report, op.meta["svg"])
                if op.argv[1] not in seen:
                    seen.add(op.argv[1])
                    if "expected" in op.meta:
                        found += checks.check_reference(report, op.meta["expected"])
                    elif op.meta.get("oracle"):
                        found += checks.check_oracle(report, op.meta["studies"])
            elif op.argv[0] == "rank":
                table = load_json(out)
                found = checks.check_rank(table, op.meta["mode"], op.n_comparisons)
                n_failed = table["n_failed"]
            else:
                with open(out) as fh:
                    found = checks.check_fit(fh.read(), op.meta["expected"])
            failed += size if found else n_failed
            problems += found
        return attempted, failed, problems


def timed(run: Run, seconds: float) -> list:
    """Cycle through the units for about ``seconds``; the walls of each unit.

    Every unit runs at least once.  After that a unit starts only if, at
    the mean unit time so far, it would end less than half a unit past
    the deadline.  Units are reported one by one, so a pass cut short by
    the deadline changes how often some units were timed, not which.
    """
    walls = [[] for _ in run.units]
    done = []
    start = time.perf_counter()
    while (len(done) < len(run.units)
           or time.perf_counter() - start + 0.5 * statistics.fmean(done) < seconds):
        i = len(done) % len(run.units)
        done.append(run.execute(run.units[i]))
        walls[i].append(done[-1])
    return walls


def end_to_end(run: Run, seconds: float, setup: list) -> Result:
    for unit in run.warmup:
        run.execute(unit)
    walls = timed(run, seconds)
    with open(os.path.join(run.workdir, "walls.json"), "w") as fh:
        json.dump(walls, fh)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, problems = run.check()
    op_s = [statistics.median(w) for w in walls]
    n_timed = sum(map(len, walls))
    metrics = {
        "setup_s": statistics.median(setup),
        "cmp_per_s": statistics.median(u.n_comparisons / t for u, t in zip(run.units, op_s)),
        "success_frac": 1.0 - failed / attempted,
        "peak_rss_mb": peak_mb,
    }
    samples = {"setup_s": len(setup), "cmp_per_s": n_timed,
               "success_frac": attempted, "peak_rss_mb": 1}
    notes = [f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})",
             f"op_s {statistics.median(op_s):.6g} (ungated: median over {len(op_s)} operations "
             f"of each one's median time; {n_timed} timed)"]
    return Result(metrics, END_TO_END, samples, attempted, failed, problems, notes)


def traced(run: Run, seed: int) -> Result:
    """Per-layer metrics from a fixed, seed-determined list of CLI calls.

    Each call runs untraced and traced, in alternating order so that
    neither side always runs on colder caches; the first call is then
    traced once more to check that its work counts repeat.
    """
    from tracing import LAYER_METRICS, WORK_COUNTS, Tracer, layer_metrics

    for unit in run.warmup:
        run.execute(unit)
    ops = [op for i in range(TRACED_UNITS[run.workload])
           for op in run.units[i % len(run.units)].ops]
    tracer = Tracer()
    traced_ids = []

    def call(op, with_trace: bool) -> float:
        if not with_trace:
            return run.execute(Unit([op], 0))
        tracer.op = len(run.calls)
        traced_ids.append(tracer.op)
        tracer.install()
        try:
            return run.execute(Unit([op], 0))
        finally:
            tracer.uninstall()

    walls = {False: 0.0, True: 0.0}
    for i, op in enumerate(ops):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            walls[with_trace] += call(op, with_trace)
    call(ops[0], True)
    first, repeat = traced_ids[0], traced_ids.pop()
    main_ops = set(traced_ids)
    untraced_wall, traced_wall = walls[False], walls[True]
    attempted, failed, problems = run.check()
    metrics = layer_metrics(tracer.spans, main_ops)
    metrics["trace.overhead_frac"] = (traced_wall - untraced_wall) / untraced_wall
    once = layer_metrics(tracer.spans, {first})
    again = layer_metrics(tracer.spans, {repeat})
    problems += [f"work count {k} differs on a repeated call: {once[k]} vs {again[k]}"
                 for k in WORK_COUNTS if once[k] != again[k]]
    problems += _compare_counts(run.workload, seed, {k: metrics[k] for k in WORK_COUNTS})
    tracer.write(os.path.join(run.workdir, "spans.jsonl"))
    return Result(
        metrics,
        {k: v[0] for k, v in LAYER_METRICS.items()},
        {k: len(main_ops) for k in metrics},
        attempted, failed, problems,
        [f"spans {len(tracer.spans)} written to {os.path.relpath(run.workdir, ROOT)}/spans.jsonl"],
        {k: f"moves {v[2]} on {v[3]}" for k, v in LAYER_METRICS.items()},
    )


def code_key() -> str:
    """Hash of the program and benchmark sources and the numeric library versions.

    Work counts are compared only between runs with the same key, so a
    change that cuts the work is not taken for a nondeterministic count.
    """
    import numpy
    import scipy

    digest = hashlib.sha256(f"{numpy.__version__} {scipy.__version__}".encode())
    for top in (os.path.join(SRC, "bmameta"), os.path.join(ROOT, "bench")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith((".py", ".json")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
                    with open(path, "rb") as fh:
                        digest.update(fh.read() + b"\0")
    return digest.hexdigest()[:16]


def _compare_counts(workload: str, seed: int, counts: dict) -> list:
    """Work counts must repeat exactly across traced runs of one seed and one code key."""
    path = os.path.join(OUT, "counts", f"{workload}-s{seed}-{code_key()}.json")
    if os.path.exists(path):
        with open(path) as fh:
            before = json.load(fh)
        return [f"work count {k} differs from an earlier run of seed {seed}: {before[k]} vs {v}"
                for k, v in counts.items() if before.get(k) != v]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(counts, fh)
    return []


def environment() -> str:
    import numpy
    import scipy

    return (f"nproc {os.cpu_count()}  python {platform.python_version()}  "
            f"numpy {numpy.__version__}  scipy {scipy.__version__}")


def run_one(args) -> int:
    setup = measure_setup() if not args.trace else []
    sys.path.insert(0, SRC)
    import bmameta

    if os.path.dirname(os.path.abspath(bmameta.__file__)) != os.path.join(SRC, "bmameta"):
        sys.exit(f"bmameta imported from {bmameta.__file__}, not from {SRC}")
    workdir = os.path.join(OUT, f"{args.workload}-s{args.seed}-t{args.trace}")
    os.makedirs(workdir, exist_ok=True)
    run = Run(args.workload, args.seed, workdir)
    r = traced(run, args.seed) if args.trace else end_to_end(run, args.seconds, setup)
    for p in r.problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"# {environment()}")
    for name, value in r.metrics.items():
        print(f"{name:36s} {args.workload:10s} {value:14.6g} {r.units[name]:8s} "
              f"n={r.samples[name]:<5d} {r.moves.get(name, '')}")
    for line in r.notes:
        print(f"# {line}")
    print(json.dumps({
        "correct": not r.problems,
        "attempted": r.attempted,
        "failed": r.failed,
        "metrics": {k: {"value": v, "unit": r.units[k]} for k, v in r.metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in both modes, each in a fresh interpreter."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.splitlines() or ["{}"]
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not json.loads(lines[-1]).get("correct"):
                status = 1
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "bmameta", "__init__.py")):
        sys.exit(f"no bmameta package under {SRC}")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
