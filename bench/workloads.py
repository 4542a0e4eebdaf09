"""The three workloads: operation lists made from a seed, and output checks.

Every operation is a command a user types, run through ``planetrees.cli.main``
in-process with stdout captured, or one call of a layer's public function.
Each has a check that compares the output with ``oracles`` (computed apart
from the program) or with a property the method must have.  A check returns
a list of problems ``(tag, message)``; an operation fails when the list is
not empty.  An operation may name the tags of a known fault in the program
that it is allowed to fail with (``Op.known``); any other problem makes the
run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

import inputs

#: the eigen, uh and leaning-eigen trees are fixed, not drawn from --seed, so
#: that exactly the same operations fail on every run
FIXED_TREE_SEED = 20251017

WORKLOADS = ("counting", "verify", "spectra")

Problem = tuple[str, str]


@dataclass(frozen=True)
class CliResult:
    code: int
    out: str


@dataclass(frozen=True)
class Raised:
    kind: str
    message: str


@dataclass
class Op:
    """One operation.  ``known`` holds the tags of faults in the program that
    this operation fails with on every run today: ``RecursionError`` (deep
    recursion in parse_tree, uh_min and count_trees_by_compositions) and
    ``power-tol`` (lambda1_power_iteration misses its tolerance)."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[Problem]]
    known: frozenset = frozenset()


def cli_call(pkg: ModuleType, argv: list[str]) -> CliResult:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = pkg.cli.main(argv)
    return CliResult(code, out.getvalue())


def _oracles():
    # imported on first check, so that set-up time does not include scipy
    # and mpmath, which only the references use
    import oracles

    return oracles


def _cli_op(pkg, argv, check, known=(), label=None) -> Op:
    def checked(outcome) -> list[Problem]:
        if isinstance(outcome, Raised):
            return [(outcome.kind, outcome.message)]
        if outcome.code != 0:
            return [("exit", f"exit code {outcome.code}")]
        try:
            return check(outcome.out)
        except (ValueError, KeyError, IndexError) as exc:
            return [("wrong", f"unreadable output: {exc!r}")]

    label = label or " ".join(argv)
    return Op(label, lambda: cli_call(pkg, argv), checked, frozenset(known))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(b))


# -------------------------------------------------------------- counting --


def counting_ops(pkg: ModuleType, rng: random.Random, fast: bool = False) -> list[Op]:
    # the seed moves each size by under 2%, so that every seed gives the
    # same spread of costs
    def n_(base: int) -> int:
        return max(3, base // 25) + rng.randrange(3) if fast else base + rng.randrange(max(2, base // 60))

    def k_(base: int) -> int:
        return base + rng.randrange(2)

    def big_k(base: int) -> int:
        return max(3, base // 10) if fast else base + rng.randrange(10)

    ops = []
    few_counts = [(3, n) for n in (150, 250, 400, 550, 700, 850, 992)]
    few_counts += [(6, n) for n in (150, 250, 350, 450, 550)]
    few_counts += [(10, n) for n in (120, 200, 280, 350, 420)]
    for k, n in few_counts:
        ops.append(_count_op(pkg, n_(n), k))
    for k, order in ((3, 300), (3, 600), (3, 900), (6, 250), (6, 450), (10, 200), (10, 350)):
        ops.append(_series_op(pkg, k, n_(order)))
    for k, n in ((16, 200), (18, 180), (20, 170), (24, 150), (28, 140), (32, 120), (36, 110), (40, 100)):
        ops.append(_count_op(pkg, n_(n), k_(k)))
    for k, order in ((16, 160), (24, 130), (32, 110), (40, 100)):
        ops.append(_series_op(pkg, k_(k), n_(order)))
    # n = 1000 is fixed: count_trees_by_compositions recurses once per node
    ops.append(_all_methods_op(pkg, 1000, 3, known={"RecursionError"}))
    for k, n in ((6, 300), (10, 200), (24, 120)):
        ops.append(_all_methods_op(pkg, n_(n), k))
    for base in (40, 100, 180, 291):
        ops.append(_cli_op(pkg, ["root", str(big_k(base)), "--format", "json"], _check_root))
    for base in (30, 80, 150, 240):
        ops.append(_cli_op(pkg, ["alpha", str(big_k(base)), "--format", "json"], _check_alpha))
    return ops


def _count_op(pkg, n: int, k: int) -> Op:
    def check(out: str) -> list[Problem]:
        if not _oracles().matches_mod(int(out.strip()), _oracles().count_mod(n, k)):
            return [("wrong", f"count({n}, {k}) differs from the A_k/B_k reference")]
        return []

    return _cli_op(pkg, ["count", str(n), str(k)], check)


def _series_op(pkg, k: int, order: int) -> Op:
    def check(out: str) -> list[Problem]:
        coeffs = [int(c) for c in json.loads(out)]
        if len(coeffs) != order:
            return [("wrong", f"{len(coeffs)} coefficients, expected {order}")]
        for p, ref in _oracles().counts_mod(k, order).items():
            bad = next((i for i, c in enumerate(coeffs) if c % p != ref[i]), None)
            if bad is not None:
                return [("wrong", f"coefficient {bad} of g_{k} differs from the reference")]
        return []

    return _cli_op(pkg, ["series", str(k), str(order)], check)


def _all_methods_op(pkg, n: int, k: int, known=()) -> Op:
    def check(out: str) -> list[Problem]:
        values = dict(line.split(": ", 1) for line in out.splitlines())
        ref = _oracles().count_mod(n, k)
        problems = [
            ("wrong", f"{method} count differs from the reference")
            for method in ("series", "compositions")
            if not _oracles().matches_mod(int(values[method]), ref)
        ]
        if values["enumerate"] != "skipped (guard)":
            problems.append(("wrong", "enumeration was expected to hit its guard"))
        return problems

    return _cli_op(pkg, ["count", str(n), str(k), "--all-methods"], check, known)


_root_verdicts: dict[tuple, str | None] = {}


def _check_root(out: str) -> list[Problem]:
    o = _oracles()
    problems = []
    rows = json.loads(out)
    if [int(r["k"]) for r in rows] != list(range(1, len(rows) + 1)):
        return [("wrong", "rows are not k = 1, 2, ...")]
    for row in rows:
        k = int(row["k"])
        lower, lo, hi, upper, width = (
            float(row[key]) for key in ("lower_bound", "lo", "hi", "upper_bound", "width")
        )
        key = (k, lower, lo, hi, upper, width)
        if key not in _root_verdicts:
            verdict = None
            if not _close(lower, o.zstar_lower_formula(k), 1e-12) or not _close(
                upper, o.zstar_upper_formula(k), 1e-12
            ):
                verdict = "proved bounds differ from their formulas"
            elif not lower <= lo <= hi <= upper or width != hi - lo or width > 1e-12:
                verdict = "bracket not inside the proved bounds, or too wide"
            elif k == 1:
                verdict = None if lo == hi == 1.0 else "k = 1 root is not exactly 1"
            elif not o.chain_positive(lo, k):
                verdict = "chain not positive at lo"
            elif o.chain_positive(hi, k):
                verdict = "chain still positive at hi"
            _root_verdicts[key] = verdict
        if _root_verdicts[key]:
            problems.append(("wrong", f"k={k}: {_root_verdicts[key]}"))
    return problems


_alpha_verdicts: dict[tuple, str | None] = {}


def _check_alpha(out: str) -> list[Problem]:
    import mpmath

    o = _oracles()
    problems = []
    rows = json.loads(out)
    if [int(r["k"]) for r in rows] != list(range(2, len(rows) + 2)):
        return [("wrong", "rows are not k = 2, 3, ...")]
    for row in rows:
        k = int(row["k"])
        a, c, lower, upper = (float(row[key]) for key in ("alpha", "c", "alpha_lower", "alpha_upper"))
        key = (k, a, c, lower, upper)
        if key not in _alpha_verdicts:
            verdict = None
            ref_lower, ref_upper = o.alpha_bounds_formula(k)
            # alpha is promised to 1e-12; allow the rounding of 1/midpoint
            eps = mpmath.mpf(1e-12 + 4 * math.ulp(a))
            if not _close(lower, ref_lower, 1e-12) or not _close(upper, ref_upper, 1e-12):
                verdict = "proved bounds differ from their formulas"
            elif not lower <= a <= upper:
                verdict = "alpha outside its proved bounds"
            elif not o.chain_positive(1 / (a + eps), k - 1) or o.chain_positive(1 / (a - eps), k - 1):
                verdict = "alpha not within 1e-12 of 1/zstar"
            elif not _close(c, float(1 / o.gk_derivative(1 / mpmath.mpf(a), k - 1)), 1e-9):
                verdict = "c differs from 1/g'(zstar)"
            _alpha_verdicts[key] = verdict
        if _alpha_verdicts[key]:
            problems.append(("wrong", f"k={k}: {_alpha_verdicts[key]}"))
    return problems


# --------------------------------------------------------------- spectra --


def fixed_trees(fast: bool = False) -> list[tuple[str, list[int]]]:
    """(shape, parent array) of the trees given to `eigen` and `uh`."""
    rng = random.Random(FIXED_TREE_SEED)
    if fast:
        return [
            ("", inputs.uniform_attachment(60, rng)),
            ("star", inputs.star(30)),
            ("", inputs.broom(20, 20)),
            ("path", inputs.path(100)),
            ("path", inputs.path(2000)),
        ]
    trees = [("", inputs.uniform_attachment(n, rng)) for n in (100, 200, 400, 800, 1600, 3200, 5000)]
    trees += [("star", inputs.star(n)) for n in (50, 200, 500)]
    trees += [("", inputs.broom(h, b)) for h, b in ((50, 50), (200, 100), (100, 400))]
    # uh_min recurses about three frames per level and overflows past a depth
    # of about 330, parse_tree past about 990: the last path fails both
    trees += [("path", inputs.path(n)) for n in (100, 200, 300, 2000)]
    return trees


def spectra_ops(pkg: ModuleType, rng: random.Random, fast: bool = False) -> list[Op]:
    ops = []
    fixed = fixed_trees(fast)
    for shape, parent in fixed:
        deep = len(parent) > 1000 and shape == "path"
        ops.append(_eigen_op(pkg, parent, shape, {"RecursionError", "power-tol"} if deep else {"power-tol"}))
    for order in (4, 6, 8) if fast else (4, 6, 8, 10, 12, 14):
        ops.append(_eigen_op(pkg, None, "", {"power-tol"}, leaning=order))
    seeded = [inputs.uniform_attachment(n, rng) for n in ((50, 150) if fast else (100, 300, 1000, 2000))]
    seeded += [inputs.uniform_attachment(rng.randint(4, 9), rng) for _ in range(4 if fast else 24)]
    for shape, parent in fixed:
        deep = len(parent) > 1000 and shape == "path"
        ops.append(_uh_op(pkg, parent, {"RecursionError"} if deep else ()))
    for parent in seeded:
        ops.append(_uh_op(pkg, parent))
    # the seed picks each size within a fixed stratum, so that every seed
    # gives the same spread of costs
    for i in range(3 if fast else 12):
        ops.append(_walks_op(pkg, 1 + i % 7, 2 * (10 + 8 * i + rng.randrange(8))))
    for i in range(3 if fast else 20):
        ops.append(_leaning_lambda1_op(pkg, 100 + 145 * i + rng.randrange(145)))
    return ops


_eigen_refs: dict[tuple, dict] = {}


def _eigen_reference(parent, shape: str) -> dict:
    o = _oracles()
    key = (shape, tuple(parent))
    if key not in _eigen_refs:
        _eigen_refs[key] = {
            "lambda1": o.lambda1(parent, shape),
            "max_degree": o.max_degree(parent),
            "uh": o.uh_greedy(parent),
            "root_walks": {10: o.root_walk_count(parent, 20)},
        }
    return _eigen_refs[key]


def _leaning_bound_ok(order: int, value: float, tol: float) -> bool:
    o = _oracles()
    eps = tol * max(1.0, value)
    if order <= 14:
        return abs(value - o.leaning_lambda1_explicit(order)) <= eps
    return o.leaning_lambda1_within(order, value, eps)


def _describe(parent, shape: str = "") -> str:
    return f"<{shape or 'tree'} of {len(parent)} nodes, {hash(tuple(parent)) % 10**6:06d}>"


def _embeds(lam: float, order: int) -> bool:
    """The embedding bound, on references: lambda1 <= that of the leaning tree."""
    o = _oracles()
    if order <= 14:
        return lam <= o.leaning_lambda1_explicit(order) + 1e-9
    return not o.leaning_pivots_positive(lam - 1e-9, order)


def _eigen_op(pkg, parent, shape: str, known, leaning: int | None = None) -> Op:
    """`eigen` on the tree ``parent``, or with ``--leaning`` when ``leaning``
    is given."""
    tol = 1e-10
    if leaning is not None:
        argv = ["eigen", "--leaning", str(leaning), "--format", "json"]
        source = label = f"leaning:{leaning}"
    else:
        argv = ["eigen", inputs.to_bracket(parent), "--format", "json"]
        source, label = argv[1], _describe(parent, shape)

    def check(out: str) -> list[Problem]:
        o = _oracles()
        tree = parent if leaning is None else o.leaning_parent(leaning)
        ref = _eigen_reference(tree, shape)
        got = json.loads(out)
        problems = []
        lam = float(got["lambda1"])
        delta = int(got["max_degree"])
        if got["tree"] != source or int(got["nodes"]) != len(tree) or delta != ref["max_degree"]:
            problems.append(("wrong", "tree, node count or maximum degree differs"))
        if abs(lam - ref["lambda1"]) > tol * max(1.0, ref["lambda1"]):
            ratio = abs(lam - ref["lambda1"]) / (tol * max(1.0, ref["lambda1"]))
            problems.append(("power-tol", f"lambda1 off by {ratio:.1f} x tol"))
        low, high = float(got["degree_lower"]), float(got["degree_upper"])
        if low != math.sqrt(delta) or high != 2.0 * math.sqrt(delta - 1):
            problems.append(("wrong", "degree bounds differ from sqrt(d), 2 sqrt(d - 1)"))
        elif not low - 1e-9 <= ref["lambda1"] <= high + 1e-9:
            problems.append(("wrong", "reference lambda1 outside the degree sandwich"))
        uh = int(got["uh"])
        if uh != ref["uh"] or uh < delta:
            problems.append(("wrong", f"uh {uh}, reference {ref['uh']}"))
        bound = float(got["uh_bound"])
        if not _leaning_bound_ok(uh - 1, bound, tol):
            tag = "power-tol" if uh - 1 <= getattr(pkg.spectral, "EXPLICIT_LEANING_ORDER", -1) else "wrong"
            problems.append((tag, "uh_bound is not lambda1 of the leaning tree of order uh - 1"))
        if not _embeds(ref["lambda1"], uh - 1):
            problems.append(("wrong", "lambda1 above that of the leaning tree of order uh - 1"))
        half = int(got["walk_growth_halflen"])
        walks = ref["root_walks"].get(half) or _oracles().root_walk_count(tree, 2 * half)
        growth = float(got["walk_growth"])
        if not _close(growth, math.exp(math.log(walks) / (2 * half)), 1e-12):
            problems.append(("wrong", "walk growth differs from the exact root walk count"))
        if growth > ref["lambda1"] * (1 + 1e-12):
            problems.append(("wrong", "walk growth above lambda1"))
        return problems

    return _cli_op(pkg, argv, check, known, f"eigen {label}")


def _uh_op(pkg, parent, known=()) -> Op:
    text = inputs.to_bracket(parent)

    def check(out: str) -> list[Problem]:
        o = _oracles()
        got = json.loads(out)
        uh = int(got["uh"])
        expected = o.uh_bruteforce(parent) if len(parent) <= 9 else o.uh_greedy(parent)
        witness = inputs.from_bracket(got["witness"])
        labels = [int(x) for x in got["labels"].split()]
        problems = []
        if uh != expected or uh < o.max_degree(parent):
            problems.append(("wrong", f"uh {uh}, reference {expected}"))
        if int(got["uh_as_given"]) != max(o.uh_labels(parent)):
            problems.append(("wrong", "uh_as_given differs from the labels of the input order"))
        if not o.same_shape(parent, witness):
            problems.append(("wrong", "witness is not a reordering of the input"))
        elif labels != o.uh_labels(witness) or max(labels) != uh:
            problems.append(("wrong", "witness labels do not reproduce uh"))
        return problems

    return _cli_op(pkg, ["uh", text, "--format", "json"], check, known, f"uh {_describe(parent)}")


def _walks_op(pkg, order: int, max_len: int) -> Op:
    def check(out: str) -> list[Problem]:
        rows = [line.split() for line in out.splitlines()[1:]]
        if [int(r[0]) for r in rows] != list(range(0, max_len + 1, 2)):
            return [("wrong", "lengths are not 0, 2, ..., max-len")]
        for length, count in rows:
            half = int(length) // 2
            if not _oracles().matches_mod(int(count), _oracles().walk_count_mod(order, half)):
                return [("wrong", f"W_{length} differs from count(n+1, k+1) - count(n+1, k)")]
        return []

    return _cli_op(pkg, ["walks", str(order), "--max-len", str(max_len)], check)


def _leaning_lambda1_op(pkg, order: int) -> Op:
    def check(outcome) -> list[Problem]:
        if isinstance(outcome, Raised):
            return [(outcome.kind, outcome.message)]
        value = float(outcome)
        if not math.sqrt(order) <= value <= 2 * math.sqrt(order - 1):
            return [("wrong", "outside the degree sandwich")]
        # the bracket is refined to 1e-12, so the midpoint is within half that
        if not _oracles().leaning_lambda1_within(order, value, 1e-12):
            return [("wrong", f"leaning_lambda1({order}) not within 1e-12 of the eigenvalue")]
        return []

    return Op(f"leaning_lambda1 {order}", lambda: pkg.spectral.leaning_lambda1(order), check)


# ---------------------------------------------------------------- verify --

VERIFY_CHECKS = {
    "series": ("count-triple-agreement", "series-complement", "literal-compositions"),
    "bijection": ("walk-count-identity", "roundtrip-walks", "roundtrip-trees", "image-match"),
    "roots": (
        "root-brackets",
        "growth-constants",
        "alpha-in-bounds",
        "count-upper-bound",
        "ratio-convergence",
    ),
    "spectral": (
        "eigen-anchors",
        "degree-sandwich",
        "degree-sandwich-offset-claim",
        "eigen-growth-window",
        "trace-agreement",
        "embedding-bound",
    ),
    "uh": ("uh-exhaustive", "uh-leaning", "uh-degree-bound"),
}
_LINE = re.compile(r"^\[\s*(pass|known-fail|FAIL)\] (\S+)\s+(\S+)\s+([\d.]+)s  (.*)$")
_OVERRUN = re.compile(r"elapsed ([\d.]+)s \(budget ([\d.]+)s\)")


def _verify_totals() -> dict[str, str]:
    """Detail prefixes whose totals the benchmark computes itself."""
    o = _oracles()
    walks = sum(o.exact_small_count(h + 1, 5) - o.exact_small_count(h + 1, 4) for h in range(6))
    trees = sum(
        o.exact_small_count(n, k + 1) - o.exact_small_count(n, k)
        for k in range(1, 6)
        for n in range(1, 8)
    )
    shapes = sum(o.rooted_unordered_trees(n) for n in range(1, 9))
    return {
        "count-triple-agreement": f"{8 * 6} cells agree",
        "roundtrip-walks": f"identity on {walks} walks",
        "roundtrip-trees": f"identity on {trees} trees",
        "uh-exhaustive": f"greedy = brute on all {shapes} shapes",
        # phi = 1.618 < sqrt(3): the order + 1 degree fails at order 2
        "degree-sandwich-offset-claim": "fails at order 2:",
    }


def _verify_op(pkg, scope: str) -> Op:
    def check(outcome) -> list[Problem]:
        if isinstance(outcome, Raised):
            return [(outcome.kind, outcome.message)]
        lines = outcome.out.splitlines()
        parsed = [_LINE.match(line) for line in lines[:-1]]
        if None in parsed or [m.group(3) for m in parsed] != list(VERIFY_CHECKS[scope]):
            return [("wrong", "unexpected report lines")]
        totals = _verify_totals()
        problems = []
        overrun_only = True
        for m in parsed:
            status, _, name, _, detail = m.groups()
            expected = "known-fail" if name == "degree-sandwich-offset-claim" else "pass"
            overrun = _OVERRUN.search(detail)
            if status == "FAIL" and overrun and float(overrun[1]) >= float(overrun[2]):
                # a budget overrun is a timing result, not a wrong answer;
                # the run-time metrics report it
                status = expected
            elif status == "FAIL":
                overrun_only = False
            if status != expected:
                problems.append(("wrong", f"{name}: {status}"))
            if name in totals and not detail.startswith(totals[name]):
                problems.append(("wrong", f"{name}: expected '{totals[name]}'"))
        verdict_ok = lines[-1] == f"verify {scope}: OK" and outcome.code == 0
        if not verdict_ok and not (overrun_only and outcome.code == 1):
            problems.append(("wrong", f"verdict {lines[-1]!r}, exit {outcome.code}"))
        return problems

    return Op(f"verify {scope}", lambda: cli_call(pkg, ["verify", scope]), check)


def verify_ops(pkg: ModuleType, rng: random.Random, fast: bool = False) -> list[Op]:
    # verify takes no input, so the seed changes nothing here; fast mode
    # leaves out the series and bijection scopes, which take seconds each
    scopes = ("roots", "spectral", "uh") if fast else tuple(VERIFY_CHECKS)
    return [_verify_op(pkg, scope) for scope in scopes]


BUILDERS = {"counting": counting_ops, "verify": verify_ops, "spectra": spectra_ops}

#: untimed calls made once during set-up, one per kind of operation
WARMUP = {
    "counting": (["count", "20", "3"], ["series", "3", "20"], ["root", "5"], ["alpha", "5"]),
    "verify": (["verify", "roots"],),
    "spectra": (
        ["eigen", "1(1 1(1))"],
        ["uh", "1(1 1(1))"],
        ["walks", "2", "--max-len", "6"],
    ),
}
