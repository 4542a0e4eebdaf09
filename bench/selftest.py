"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

1. Runs every workload end to end in fast mode (tiny inputs, one second of
   passes, untraced and traced) and requires a result with ``correct: true``.
2. Gives each kind of check one corrupted copy of a real output and requires
   the operation to count as failed, after requiring the uncorrupted output
   (where the program's own output is not already a known fault) to pass.
   The corruptions are an off-by-one count, series coefficient, walk count
   and Ulam-Harris number; a root bracket moved across the root; alpha moved
   by 1e-9; lambda1 moved by ten times the tolerance; a verify total off by
   one and the offset-degree claim reported as passing.

Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(1, str(HERE))

import planetrees  # noqa: E402
import planetrees.cli  # noqa: E402,F401

import inputs  # noqa: E402
import workloads as w  # noqa: E402
from workloads import CliResult  # noqa: E402

failures: list[str] = []


def expect(name: str, condition: bool) -> None:
    print(f"{'ok  ' if condition else 'FAIL'} {name}")
    if not condition:
        failures.append(name)


def run_fast(workload: str, trace: int) -> None:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7"]
    cmd += ["--seconds", "1", "--trace", str(trace), "--fast"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    result = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else {}
    expect(f"fast {workload} trace={trace} runs and is correct", result.get("correct") is True)


def edited(op: w.Op, edit) -> CliResult:
    """The op's real output with ``edit`` applied to its text."""
    outcome = op.run()
    return CliResult(outcome.code, edit(outcome.out))


def json_edit(change):
    def edit(text: str) -> str:
        data = json.loads(text)
        change(data)
        return json.dumps(data)

    return edit


def corrupted(name: str, op: w.Op, edit, clean_passes: bool = True) -> None:
    outcome = op.run()
    if clean_passes:
        expect(f"{name}: real output passes", not op.check(outcome))
    expect(f"{name}: corrupted output fails", bool(op.check(edited(op, edit))))


def move_bracket(rows) -> None:
    row = rows[2]  # k = 3
    lo, hi = float(row["lo"]), float(row["hi"])
    shift = 2 * (hi - lo) + 1e-13
    row["lo"], row["hi"] = repr(lo + shift), repr(hi + shift)
    row["width"] = repr((hi + shift) - (lo + shift))


def shift_alpha(rows) -> None:
    rows[3]["alpha"] = repr(float(rows[3]["alpha"]) + 1e-9)


def exact_lambda1(op: w.Op, parent) -> w.Op:
    """The eigen op with lambda1 and uh_bound replaced by reference values, so
    its output passes whatever the power iteration returned."""
    import oracles

    ref = oracles.lambda1(parent)

    def fixed(outcome):
        data = json.loads(outcome.out)
        data["lambda1"] = repr(ref)
        data["uh_bound"] = repr(oracles.leaning_lambda1_explicit(int(data["uh"]) - 1))
        return CliResult(outcome.code, json.dumps(data))

    return w.Op(op.label, lambda: fixed(op.run()), op.check, op.known)


def main() -> int:
    for workload in w.WORKLOADS:
        for trace in (0, 1):
            run_fast(workload, trace)

    pkg = planetrees
    corrupted("count", w._count_op(pkg, 40, 3), lambda t: str(int(t) + 1))
    corrupted(
        "series",
        w._series_op(pkg, 6, 30),
        json_edit(lambda c: c.__setitem__(5, str(int(c[5]) + 1))),
    )
    corrupted("root", w._cli_op(pkg, ["root", "8", "--format", "json"], w._check_root), json_edit(move_bracket))
    corrupted("alpha", w._cli_op(pkg, ["alpha", "8", "--format", "json"], w._check_alpha), json_edit(shift_alpha))

    parent = inputs.uniform_attachment(40, random.Random(3))
    eigen = exact_lambda1(w._eigen_op(pkg, parent, "", {"power-tol"}), parent)
    ten_tol = json_edit(
        lambda d: d.__setitem__("lambda1", repr(float(d["lambda1"]) + 10 * 1e-10 * max(1.0, float(d["lambda1"]))))
    )
    corrupted("eigen lambda1 + 10 tol", eigen, ten_tol)
    corrupted("uh", w._uh_op(pkg, parent), json_edit(lambda d: d.__setitem__("uh", str(int(d["uh"]) - 1))))

    def bump_last(text: str) -> str:
        head, last = text.rstrip("\n").rsplit(" ", 1)
        return f"{head} {int(last) + 1}\n"

    corrupted("walks", w._walks_op(pkg, 3, 20), bump_last)
    lean = w._leaning_lambda1_op(pkg, 500)
    expect("leaning_lambda1: real output passes", not lean.check(lean.run()))
    expect("leaning_lambda1: + 10 tol fails", bool(lean.check(lean.run() + 10 * 1e-12 * math.sqrt(500))))

    def total_plus_one(text: str) -> str:
        return text.replace("greedy = brute on all 200 shapes", "greedy = brute on all 201 shapes")

    corrupted("verify uh total", w._verify_op(pkg, "uh"), total_plus_one)
    corrupted(
        "verify offset-degree claim",
        w._verify_op(pkg, "spectral"),
        lambda t: t.replace("[known-fail] spectral", "[      pass] spectral"),
    )
    print(f"{len(failures)} failing self-test case(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
