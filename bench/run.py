"""Benchmark of planetrees: one workload per process, checked outputs, metrics.

    python3 bench/run.py --workload counting --seed 1 --seconds 30 --trace 0

Runs the workload's fixed operation list in passes, one operation after the
other on one thread (a closed loop with one caller), until ``--seconds``
have passed; the last pass is completed, so a run makes whole passes.  Then it checks
every output against references computed apart from the program and prints,
as the last line of stdout, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are scaled to a reference machine speed.  This machine's speed drifts
by tens of percent within seconds (other tenants share its cores), and that
drift, not the program, dominated the spread between runs.  So a timer
interrupts the operations every ``PROBE_INTERVAL_S`` to run a fixed piece of
interpreter work, the calibration probe, and every time measured in a pass
is multiplied by ``REF_PROBE_S / mean probe time in that pass``: the time
the pass would have taken with the probe at its reference time.  The probes'
own time is subtracted from the operations they interrupted.

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
first half of the time runs untraced and the second half traced, and the
metrics are the per-layer ones (see spans.py), including the tracing
overhead.  ``--fast`` swaps in tiny inputs, for a smoke test in seconds.

The program is imported from ``src/`` next to this directory and nowhere
else; without it the benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import time

_T0 = time.monotonic()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: fixed interpreter settings: hashing, and one BLAS thread (one caller)
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
START_VAR = "PLANETREES_BENCH_START"
#: set-up is measured in the run's own process and in this many fresh ones
SETUP_PROBES = 6
#: percentiles reported as the tail, highest first
TAIL_PERCENTILES = (99, 95, 90, 75)
#: calibration probe time at the reference speed, and the time between probes
REF_PROBE_S = 1e-3
PROBE_INTERVAL_S = 0.025
LOCAL_WINDOW_S = 0.25
#: no probe is run deeper than this in the stack, so a probe never makes a
#: deeply recursive operation hit the recursion limit
PROBE_MAX_DEPTH = 600
_BIG = 3**1300


def calibration_probe() -> float:
    """Seconds taken by a fixed mix of big-integer arithmetic and tuple
    hashing, the kinds of work the program does.  It keeps nothing, so that
    it leaves the program's heap as it found it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1, 160):
        acc += (_BIG * (_BIG + i)) >> 4100
        acc ^= hash((i, acc & 0xFFFF, str(i)))
    return time.perf_counter() - t0


class Sampler:
    """Runs the calibration probe from a SIGALRM interval timer."""

    def __init__(self):
        self.samples: list[float] = []
        self.at: list[float] = []
        self.spent = 0.0
        self.busy = False

    def _probe(self, signum, frame) -> None:
        if self.busy:
            return
        depth = 0
        while frame is not None and depth < PROBE_MAX_DEPTH:
            frame, depth = frame.f_back, depth + 1
        if frame is not None:
            return
        self.busy = True
        t0 = time.perf_counter()
        self.samples.append(calibration_probe())
        self.at.append(t0)
        self.spent += time.perf_counter() - t0
        self.busy = False

    def __enter__(self) -> "Sampler":
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Speed factor of the probes run in [start, end], or of every probe
        when the window holds fewer than five."""
        probes = [p for p, t in zip(self.samples, self.at) if start <= t <= end]
        return speed_factor(probes if len(probes) >= 5 else self.samples)


def speed_factor(probes: list[float]) -> float:
    """Mean probe time over the reference, with the highest and lowest tenth
    left out; measured times are divided by it."""
    probes = sorted(probes) or [REF_PROBE_S]
    cut = len(probes) // 10
    return statistics.fmean(probes[cut : len(probes) - cut]) / REF_PROBE_S


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("counting", "verify", "spectra"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--fast", action="store_true", help="tiny inputs, for a smoke test")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def pinned_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PLANETREES_")}
    env.update(PINNED_ENV)
    return env


def import_program():
    """Import planetrees from this checkout's src/, or exit with status 1."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    try:
        import planetrees
        import planetrees.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"bench: cannot import planetrees from {SRC}: {exc}")
    if Path(planetrees.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"bench: planetrees was imported from {planetrees.__file__}, not {SRC}")
    return planetrees


def setup(pkg, workload: str, seed: int, fast: bool):
    """Input generation and warm-up; returns the operation list."""
    import workloads

    ops = workloads.BUILDERS[workload](pkg, random.Random(seed), fast)
    for argv in workloads.WARMUP[workload]:
        workloads.cli_call(pkg, argv)
    return ops


def probe_setups(args) -> list[float]:
    """Set-up time of fresh processes, from spawn to ready, scaled by the
    calibration probes run just before each spawn."""
    times = []
    for _ in range(SETUP_PROBES):
        factor = speed_factor([calibration_probe() for _ in range(10)])
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload]
        cmd += ["--seed", str(args.seed), "--probe-setup"] + (["--fast"] if args.fast else [])
        spawned = time.monotonic()
        done = subprocess.run(cmd, env=pinned_env(), capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            sys.exit(f"bench: set-up probe failed: {done.stderr.strip()[-500:]}")
        times.append((float(done.stdout.split()[-1]) - spawned) / factor)
    return times


# --------------------------------------------------------------- passes --


class Passes:
    """Scaled wall time, per-operation latencies and distinct outcomes of
    passes, and each pass's speed factor."""

    def __init__(self, ops):
        self.ops = ops
        self.factors: list[float] = []
        self.walls: list[float] = []
        self.latencies: list[float] = []
        self.stdout_bytes: list[int] = []
        # first outcome of each op, and any later outcome that differs from it
        self.outcomes: list[list] = [[] for _ in ops]
        self.counts: list[list[int]] = [[] for _ in ops]

    def run(self, seconds: float, tracer=None, traced_metrics=None) -> None:
        from workloads import CliResult, Raised

        start = time.perf_counter()
        while True:
            gc.collect()
            if tracer:
                tracer.new_pass()
            spans, outcomes = [], []
            with Sampler() as sampler:
                for op in self.ops:
                    spent = sampler.spent
                    t0 = time.perf_counter()
                    try:
                        outcome = op.run()
                    except (Exception, SystemExit) as exc:  # a raising operation fails
                        outcome = Raised(type(exc).__name__, str(exc)[:200])
                    t1 = time.perf_counter()
                    spans.append((t0, t1, t1 - t0 - (sampler.spent - spent)))
                    outcomes.append(outcome)
            # each operation is scaled by the probes run within a quarter
            # second of it, which follows changes of speed inside a pass
            window = LOCAL_WINDOW_S
            times = [d / sampler.factor(t0 - window, t1 + window) for t0, t1, d in spans]
            factor = sampler.factor()
            if tracer:
                traced_metrics.append((tracer.pass_metrics(), factor))
                tracer.end_pass()
            self.factors.append(factor)
            self.walls.append(sum(times))
            self.latencies.extend(times)
            self.stdout_bytes.append(
                sum(len(o.out.encode()) for o in outcomes if isinstance(o, CliResult))
            )
            for i, outcome in enumerate(outcomes):
                self._keep(i, outcome)
            if time.perf_counter() - start >= seconds:
                return

    def _keep(self, i: int, outcome) -> None:
        for j, seen in enumerate(self.outcomes[i]):
            if seen == outcome:
                self.counts[i][j] += 1
                return
        self.outcomes[i].append(outcome)
        self.counts[i].append(1)

    def verdict(self) -> tuple[bool, int, int, dict[str, list[str]]]:
        """(correct, attempted, failed, problems by operation label)."""
        correct, attempted, failed = True, 0, 0
        problems: dict[str, list[str]] = {}
        for op, outcomes, counts in zip(self.ops, self.outcomes, self.counts):
            for outcome, count in zip(outcomes, counts):
                attempted += count
                found = op.check(outcome)
                if found:
                    failed += count
                    problems[op.label] = [f"{tag}: {msg}" for tag, msg in found]
                    if any(tag not in op.known for tag, _ in found):
                        correct = False
        return correct, attempted, failed, problems


def tail_percentile(per_pass: int) -> int | None:
    """Highest listed percentile with at least ten of each pass's operations
    beyond it; None (report the median) below forty operations per pass.
    Fixed by the operation list, so the same percentile is reported however
    many passes fit in a run."""
    if per_pass < 40:
        return None
    return next(p for p in TAIL_PERCENTILES if per_pass * (100 - p) / 100 >= 10)


# ---------------------------------------------------------------- report --


def end_to_end(passes: Passes, setups: list[float], rss_mb: float) -> dict:
    lat_ms = [t * 1e3 for t in passes.latencies]
    p = tail_percentile(len(passes.ops))
    tail = statistics.median(lat_ms) if p is None else statistics.quantiles(lat_ms, n=100)[p - 1]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(passes.walls), "s"),
        "op_p50_ms": (statistics.median(lat_ms), "ms"),
        "op_tail_ms": (tail, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(pkg, tracer, untraced: Passes, traced: Passes, traced_metrics) -> dict:
    from spans import PER_LAYER

    timed = {name for name, unit in PER_LAYER if unit in ("s", "ms", "us")}
    values = {
        name: statistics.median(m[name] / (f if name in timed else 1) for m, f in traced_metrics)
        for name in traced_metrics[0][0]
    }
    values["cli.stdout_bytes"] = statistics.median(traced.stdout_bytes)
    values["trace.overhead_s"] = statistics.median(traced.walls) - statistics.median(untraced.walls)
    values["spectral.max_err_over_tol"] = max_err_over_tol(tracer.power_calls)
    values["trees.enumerate_peak_mb"] = enumerate_peak_mb(pkg, tracer.largest_enumeration)
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def max_err_over_tol(calls) -> float:
    """Worst |lambda1 - reference| / (tol * max(1, reference)) over the
    power-iteration calls of the first traced pass."""
    import oracles
    from inputs import preorder

    worst, refs = 0.0, {}
    for tree, tol, value in calls:
        parent, stack = [], [(tree, -1)]
        while stack:
            node, up = stack.pop()
            parent.append(up)
            index = len(parent) - 1
            stack.extend((child, index) for child in reversed(node.children))
        key = tuple(preorder(parent))
        if key not in refs:
            refs[key] = oracles.lambda1(parent)
        ref = refs[key]
        worst = max(worst, abs(value - ref) / (tol * max(1.0, ref)))
    return worst


def enumerate_peak_mb(pkg, largest) -> float:
    """tracemalloc peak of the largest enumeration the workload made, run
    again once after the traced passes (tracemalloc slows it several times,
    so it is kept out of the timed passes)."""
    import tracemalloc

    if largest is None:
        return 0.0
    gc.collect()
    tracemalloc.start()
    try:
        pkg.trees.enumerate_decreasing_trees(**largest[0])
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    if START_VAR not in os.environ and not args.probe_setup:
        # re-execute with the pinned settings; PYTHONHASHSEED only takes
        # effect at interpreter start
        env = pinned_env()
        env[START_VAR] = repr(_T0)
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve())] + sys.argv[1:], env)
    start = float(os.environ[START_VAR]) if not args.probe_setup else _T0

    pkg = import_program()
    ops = setup(pkg, args.workload, args.seed, args.fast)
    ready = time.monotonic()
    if args.probe_setup:
        print(repr(ready))
        return 0

    if args.trace:
        from spans import Tracer

        untraced = Passes(ops)
        untraced.run(args.seconds / 2)
        tracer = Tracer(pkg)
        tracer.install()
        traced, traced_metrics = Passes(ops), []
        traced.run(args.seconds / 2, tracer, traced_metrics)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer(pkg, tracer, untraced, traced, traced_metrics)
        checked = [untraced, traced]
    else:
        passes = Passes(ops)
        passes.run(args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        own_setup = (ready - start) / passes.factors[0]
        metrics = end_to_end(passes, [own_setup] + probe_setups(args), rss_mb)
        checked = [passes]
        print(
            f"passes {len(passes.walls)}; speed factors "
            f"{min(passes.factors):.3f}..{max(passes.factors):.3f}",
            file=sys.stderr,
        )

    correct, attempted, failed, problems = True, 0, 0, {}
    for passes in checked:
        ok, a, f, found = passes.verdict()
        correct, attempted, failed = correct and ok, attempted + a, failed + f
        problems.update(found)
    for label, found in problems.items():
        print(f"failed: {label}: {'; '.join(found)[:300]}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
