"""Command-line frontend.

Subcommands: count, table, series, root, alpha, walks, eigen, uh, bijection,
verify.  Output formats are text (default), json, and csv; machine formats
are byte-deterministic (no timestamps), integer quantities are emitted as
decimal strings, and floats use their shortest round-trip representation.
CSV fields that hold a comma, quote or line break are quoted, as the
``csv`` module's minimal quoting does.

Exit codes: 0 success, 1 verification failure or method disagreement,
2 usage error, 3 size guard exceeded.  Each size guard compares a count of
what a command will produce (trees, walks, the moves of a walk listing,
walk-count work, the chain steps of ``root`` and ``alpha``), exact or a
lower bound, with a fixed cap, and --unsafe-limits lifts them all.  Seven
options have an environment mirror named PLANETREES_<OPTION> (e.g.
PLANETREES_MAX_N): --format, --tol, --max-n, --max-k, --method, --order
and --unsafe-limits, and explicit flags win.  The variables are read on
each call of ``main``, and a bad value is rejected as its flag would be: a
usage error naming the variable, exit 2.

Each command imports the layers it calls when it runs, and the module and
its parser import none, so a process compiles the code of its one command
alone: ``count``, ``table`` and ``series`` load ``series`` (``count`` adds
``trees`` to enumerate), ``root`` and ``alpha`` load ``asymptotics``,
``walks`` loads ``spectral`` (``bijection`` to list the walks), ``eigen``,
``uh`` and ``bijection`` load their own layers and ``trees``, and
``verify`` loads every layer.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Iterator

from .errors import LimitError, TreeParseError, WalkError
from .intstr import int_to_str

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_GUARD = 3

ENV_PREFIX = "PLANETREES_"

#: the parser's copies of ``verify.SCOPES``, ``spectral.DEFAULT_EIGEN_TOL``
#: and ``asymptotics.DEFAULT_ROOT_TOL``, so that building it loads no layer
#: (tests pin each to its original)
SCOPES = ("series", "bijection", "roots", "spectral", "uh")
DEFAULT_EIGEN_TOL = 1e-10
DEFAULT_ROOT_TOL = 1e-12

#: cap on the chain steps K(K + 1)/2 of ``root K`` and ``alpha K``, whose row
#: k walks a chain of about k steps: at K = 4999, the largest admitted,
#: ``alpha`` takes 4.6 s and ``root`` 3.3 s on a shared 2-core machine
CHAIN_STEP_LIMIT = 12_500_000

FORMATS = ("text", "json", "csv")
METHODS = ("series", "compositions", "enumerate")


def _switch(raw: str) -> bool:
    return raw not in ("", "0", "false")


#: options whose default comes from PLANETREES_<DEST>: (type, choices, default)
#: when neither the flag nor the variable is given
_ENV_OPTIONS = {
    "format": (str, FORMATS, "text"),
    "tol": (float, None, None),
    "max_n": (int, None, 8),
    "max_k": (int, None, 6),
    "method": (str, METHODS, "series"),
    "order": (int, None, None),
    "unsafe_limits": (_switch, None, False),
}


def _env_help(dest: str) -> str:
    """The help text's "default D; env PLANETREES_DEST" for an option of
    ``_ENV_OPTIONS``."""
    return f"default {_ENV_OPTIONS[dest][2]}; env {ENV_PREFIX}{dest.upper()}"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.  It reads no
    environment: options left unset parse to None and ``main`` fills them
    from ``PLANETREES_*`` on each call."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=FORMATS,
        help=f"output format ({_env_help('format')})",
    )
    common.add_argument(
        "--tol",
        type=float,
        help=f"tolerance for iterative numerics (default {DEFAULT_EIGEN_TOL!r} for "
        f"eigen, {DEFAULT_ROOT_TOL!r} for root and alpha; env {ENV_PREFIX}TOL)",
    )
    common.add_argument(
        "--unsafe-limits",
        action="store_true",
        default=None,
        help="lift every size guard: the tree and walk counts, the moves of a walk "
        "listing, the walk-count budgets of walks and eigen and the chain steps of "
        "root and alpha",
    )

    parser = argparse.ArgumentParser(
        prog="planetrees",
        description="Counts, bijections, growth constants, and eigenvalue "
        "bounds for plane trees with strictly decreasing labels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", parents=[common], help="count decreasing trees")
    p.add_argument("n", type=int, help="number of nodes")
    p.add_argument("k", type=int, help="label bound")
    p.add_argument("--method", choices=METHODS, help="default series (env PLANETREES_METHOD)")
    p.add_argument(
        "--all-methods",
        action="store_true",
        help="run every method, print all values, exit 1 on disagreement",
    )

    p = sub.add_parser("table", parents=[common], help="grid of counts")
    p.add_argument("--max-n", type=int, help=f"largest n ({_env_help('max_n')})")
    p.add_argument("--max-k", type=int, help=f"largest k ({_env_help('max_k')})")

    p = sub.add_parser("series", parents=[common], help="counting series coefficients")
    p.add_argument("k", type=int, help="label bound")
    p.add_argument("order", type=int, help="truncation order (number of coefficients)")

    p = sub.add_parser("root", parents=[common], help="certified root brackets")
    p.add_argument("k", type=int, help="largest chain index to report")

    p = sub.add_parser("alpha", parents=[common], help="growth constants")
    p.add_argument("k", type=int, help="largest label bound to report")

    p = sub.add_parser("walks", parents=[common], help="closed root walk counts")
    p.add_argument("k", type=int, help="leaning-tree order")
    p.add_argument("--max-len", type=int, default=12, help="largest walk length (even)")
    p.add_argument("--list", action="store_true", help="list the walks (guarded)")

    p = sub.add_parser("eigen", parents=[common], help="largest-eigenvalue report")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--leaning", type=int, metavar="K", help="use the order-K leaning tree")
    group.add_argument("tree", nargs="?", help="tree in bracket notation")
    p.add_argument("--trace-n", type=int, default=10, help="half-length for walk growth")

    p = sub.add_parser("uh", parents=[common], help="Ulam-Harris number of a tree")
    p.add_argument("tree", help="tree in bracket notation (labels ignored)")

    p = sub.add_parser("bijection", parents=[common], help="walk/tree bijection")
    p.add_argument("direction", choices=("p", "w"), help="p: walk -> tree, w: tree -> walk")
    p.add_argument("input", help="walk tokens for p, bracket tree for w")
    p.add_argument(
        "--order",
        type=int,
        help="leaning-tree order (required for direction p; env PLANETREES_ORDER)",
    )

    p = sub.add_parser("verify", parents=[common], help="run the verification suite")
    p.add_argument(
        "scope",
        nargs="?",
        default="all",
        choices=("all",) + SCOPES,
        help="which checks to run",
    )
    return parser


def _resolve_env_defaults(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Fill the options left unset from their ``PLANETREES_*`` variables,
    rejecting a bad value as its flag would be rejected (exit 2)."""
    given = vars(args)
    for dest, (kind, choices, default) in _ENV_OPTIONS.items():
        if dest not in given or given[dest] is not None:
            continue  # given on the command line, or not an option of this command
        name = ENV_PREFIX + dest.upper()
        raw = os.environ.get(name)
        value = default
        if raw is not None:
            try:
                value = kind(raw)
            except ValueError:
                parser.error(f"{name}: invalid {kind.__name__} value: {raw!r}")
            if choices is not None and value not in choices:
                parser.error(
                    f"{name}: invalid choice: {raw!r} (choose from {', '.join(map(repr, choices))})"
                )
        setattr(args, dest, value)


def lifted(args: argparse.Namespace, *guards: str) -> dict[str, float]:
    """``guard=math.inf`` per named size guard under --unsafe-limits, else nothing."""
    return dict.fromkeys(guards, math.inf) if args.unsafe_limits else {}


def tolerance(args: argparse.Namespace) -> dict[str, float]:
    """``tol=`` for a numerics call if a tolerance was given (--tol or
    PLANETREES_TOL), else nothing: each command keeps its default."""
    return {} if args.tol is None else {"tol": args.tol}


# ------------------------------------------------------------- rendering --


def _fmt_float(x: float) -> str:
    return repr(float(x))


def _write_csv(rows: list[list[str]]) -> None:
    # minimal quoting: only a field holding a comma, quote or line break is quoted
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


def _json_objects(columns: list[str], rows: list[list[str]], pad: str) -> list[str]:
    """Each row as ``json.dumps(dict(zip(columns, row)), sort_keys=True,
    indent=2)`` writes it nested at indent ``pad``, for distinct column
    names.  That indented form runs CPython's pure-Python encoder; here the
    C encoder of the compact form quotes each cell, and each key once."""
    order = sorted(range(len(columns)), key=columns.__getitem__)
    keys = [f"{pad}  {encode_basestring_ascii(columns[i])}: " for i in order]
    if not keys:
        return ["{}"] * len(rows)
    return [
        "{\n" + ",\n".join([key + encode_basestring_ascii(row[i]) for key, i in zip(keys, order)])
        + f"\n{pad}}}"
        for row in rows
    ]


def emit_table(fmt: str, columns: list[str], rows: list[list[str]]) -> None:
    if fmt == "json":
        objects = _json_objects(columns, rows, "  ")
        print("[\n  " + ",\n  ".join(objects) + "\n]" if objects else "[]")
    elif fmt == "csv":
        _write_csv([columns, *rows])
    else:
        widths = [
            max(len(col), *(len(row[i]) for row in rows)) if rows else len(col)
            for i, col in enumerate(columns)
        ]
        print("  ".join(col.ljust(widths[i]) for i, col in enumerate(columns)).rstrip())
        for row in rows:
            print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)).rstrip())


def emit_object(fmt: str, pairs: list[tuple[str, str]]) -> None:
    if fmt == "json":
        print(_json_objects([key for key, _ in pairs], [[value for _, value in pairs]], "")[0])
    elif fmt == "csv":
        _write_csv([[key for key, _ in pairs], [value for _, value in pairs]])
    else:
        for key, value in pairs:
            print(f"{key}: {value}")


# -------------------------------------------------------------- commands --


def cmd_count(args) -> int:
    from . import series

    def enumerated() -> int:
        from . import trees

        return trees.count_trees_by_enumeration(args.n, args.k, **lifted(args, "max_trees"))

    methods = {
        "series": lambda: series.count_trees(args.n, args.k),
        "compositions": lambda: series.count_trees_by_compositions(args.n, args.k),
        "enumerate": enumerated,
    }
    if args.all_methods:
        values: list[tuple[str, str]] = []
        numbers = set()
        for name, fn in methods.items():
            try:
                value = fn()
            except LimitError:  # only enumeration has a guard
                values.append((name, "skipped (guard)"))
                continue
            numbers.add(value)
            values.append((name, int_to_str(value)))
        emit_object(args.format, values)
        return EXIT_OK if len(numbers) == 1 else EXIT_VERIFY_FAILED
    value = methods[args.method]()
    if args.format in ("json", "csv"):
        pairs = [("n", str(args.n)), ("k", str(args.k)), ("count", int_to_str(value))]
        emit_object(args.format, pairs)
    else:
        print(int_to_str(value))
    return EXIT_OK


def cmd_table(args) -> int:
    from . import series

    max_n, max_k = args.max_n, args.max_k
    if max_n < 1 or max_k < 1:
        raise ValueError("--max-n and --max-k must be positive")
    columns = ["n"] + [f"k={k}" for k in range(1, max_k + 1)]
    # one chain gives every column: coefficient n of g_k is count_trees(n, k)
    by_k = series.gk_columns(max_k, max_n + 1)
    rows = [[str(n)] + [int_to_str(coeffs[n]) for coeffs in by_k] for n in range(1, max_n + 1)]
    emit_table(args.format, columns, rows)
    return EXIT_OK


def cmd_series(args) -> int:
    from . import series

    s = series.gk_series(args.k, args.order)
    if args.format == "csv":
        print(",".join(int_to_str(c) for c in s.coeffs))
    else:
        # the canonical exchange format: a JSON array of decimal strings
        print(series.series_to_json(s))
    return EXIT_OK


def cmd_root(args) -> int:
    """Root brackets of s_1..s_K, each centred on the Newton root and
    certified by the rule of ``asymptotics.RootBracket``: no wider than the
    tolerance or 16 ulps.  A row costs one derivative pass of k steps from
    the fitted seed (up to three for k < 13) and two chain passes for the
    certificate."""
    from . import asymptotics

    if args.k < 1:
        raise ValueError("k must be positive")
    _guard_chain_steps(args)
    columns = ["k", "lower_bound", "lo", "hi", "upper_bound", "width"]
    rows = []
    for k in range(1, args.k + 1):
        bracket = asymptotics.zstar(k, **tolerance(args))
        rows.append(
            [
                str(k),
                _fmt_float(asymptotics.zstar_lower_bound(k)),
                _fmt_float(bracket.lo),
                _fmt_float(bracket.hi),
                _fmt_float(asymptotics.zstar_upper_bound(k)),
                _fmt_float(bracket.width),
            ]
        )
    emit_table(args.format, columns, rows)
    return EXIT_OK


def cmd_alpha(args) -> int:
    """Growth constants for k = 2..K at float precision, alpha certified
    within the tolerance by a root bracket as in ``cmd_root`` (where the
    rule of ``asymptotics.RootBracket`` rests on the float chain, only to
    about 1e-13 * alpha, see ``asymptotics.growth_constants``); c from one
    more derivative pass at the bracket midpoint."""
    from . import asymptotics

    if args.k < 2:
        raise ValueError("growth constants are defined for k >= 2")
    _guard_chain_steps(args)
    columns = ["k", "alpha", "c", "alpha_lower", "alpha_upper"]
    rows = []
    for k in range(2, args.k + 1):
        lower, upper = asymptotics.alpha_bounds(k)
        growth, constant = asymptotics.growth_constants(k, **tolerance(args))
        rows.append(
            [
                str(k),
                _fmt_float(growth),
                _fmt_float(constant),
                _fmt_float(lower),
                _fmt_float(upper),
            ]
        )
    emit_table(args.format, columns, rows)
    return EXIT_OK


def _guard_chain_steps(args) -> None:
    """Refuse ``root K`` or ``alpha K`` before the first row when its chain
    steps are over ``CHAIN_STEP_LIMIT``, unless --unsafe-limits."""
    steps = args.k * (args.k + 1) // 2
    if steps > CHAIN_STEP_LIMIT and not args.unsafe_limits:
        raise LimitError(
            f"{args.command} limited to {CHAIN_STEP_LIMIT:,} chain steps ({steps:,} here)"
        )


def cmd_walks(args) -> int:
    if args.max_len < 0 or args.max_len % 2:
        raise ValueError("--max-len must be even and nonnegative")
    if args.list:
        from . import bijection

        columns = ["length", "walk"]
        walks = enumerate_guarded_walks(args)
        rows = [[str(len(w)), bijection.format_walk(w)] for w in walks]
    else:
        from . import spectral

        # the coefficients of 1/s_K off the label chain: no tree is built
        budgets = lifted(args, "max_work", "max_growth")
        table = spectral.leaning_walk_counts(args.k, args.max_len, **budgets)
        columns = ["length", "count"]
        rows = [[str(length), int_to_str(count)] for length, count in table.items()]
    emit_table(args.format, columns, rows)
    return EXIT_OK


def enumerate_guarded_walks(args) -> Iterator:
    """The closed walks (``bijection.Walk``) of every even length up to
    --max-len, streamed shortest first.  Each length's stream checks its
    exact-count guard when called, and they are called longest (most
    numerous) first, so that a refusal comes before the work."""
    from . import bijection

    # the moves printed are capped at as many as WALK_LIMIT walks of the
    # default --max-len, 12; the order-1 tree has a walk of every length, so
    # the walk count does not bound the moves: from order 1 on, lengths up to
    # 2h hold h(h + 1) or more
    limit = 12 * bijection.WALK_LIMIT
    moves = args.max_len // 2 * (args.max_len // 2 + 1)
    if moves > limit and not args.unsafe_limits:
        raise LimitError(f"walk listing limited to {limit:,} moves ({moves:,} here)")
    streams = [
        bijection.iter_closed_walks(args.k, length, **lifted(args, "max_walks"))
        for length in range(args.max_len, -1, -2)
    ]
    return itertools.chain.from_iterable(reversed(streams))


def cmd_eigen(args) -> int:
    from . import spectral, trees, ulam_harris

    if args.trace_n < 1:
        raise ValueError("--trace-n must be positive")
    half = args.trace_n
    budgets = lifted(args, "max_work", "max_growth")
    tol = args.tol or spectral.DEFAULT_EIGEN_TOL
    if args.leaning is not None:
        # no tree: 2^K nodes, degree K, uh K + 1, the rest off the label chain
        k = args.leaning
        if k:
            growth = spectral.leaning_walk_growth(k, half, **budgets)
        lam = spectral.leaning_lambda1(k, tol)
        source, size, delta, uh = f"leaning:{k}", 2**k, k, k + 1
    else:
        # one subtree plan serves size, degree, eigenvalue, uh and walk growth
        tree, plan = trees.parse_plan(args.tree)
        source = args.tree if _canonical(args.tree) else trees.format_tree(tree)
        size, delta = trees.plan_node_count(plan), trees.plan_max_degree(plan)
        lam = spectral.plan_lambda1(plan, tol)
        uh = ulam_harris.plan_uh_number(plan)
        if size > 1:
            growth = spectral.plan_walk_growth(plan, half, **budgets)
    low, high = spectral.stevanovic_bounds(delta) if delta >= 1 else (0.0, 0.0)
    if delta == 1:  # the single edge: lambda1 is exactly 1, the formula's 0 is vacuous
        high = 1.0
    if args.leaning is not None and tol <= spectral.DEFAULT_EIGEN_TOL:
        # the bound is leaning_lambda1(uh - 1 = K) at the tolerance lam used
        leaning_bound = lam
    else:
        leaning_bound = spectral.leaning_eigen_bound(uh, tol)
    pairs = [
        ("tree", source),
        ("nodes", int_to_str(size)),
        ("max_degree", str(delta)),
        ("lambda1", _fmt_float(lam)),
        ("degree_lower", _fmt_float(low)),
        ("degree_upper", _fmt_float(high)),
        ("uh", str(uh)),
        ("uh_bound", _fmt_float(leaning_bound)),
    ]
    if size > 1:
        pairs.append(("walk_growth", _fmt_float(growth)))
        pairs.append(("walk_growth_halflen", str(half)))
    emit_object(args.format, pairs)
    return EXIT_OK


def _canonical(text: str) -> bool:
    """Whether parsed bracket text is what ``trees.format_tree`` prints for
    it: the grammar leaves no freedom but zeros before a label."""
    return text[0] != "0" and "(0" not in text and " 0" not in text


def cmd_uh(args) -> int:
    from . import trees, ulam_harris

    tree, plan = trees.parse_plan(args.tree)
    report = ulam_harris.plan_uh_min(plan)
    ordered = ulam_harris.uh_ordered(tree)
    emit_object(
        args.format,
        [
            ("uh", str(report.uh)),
            ("uh_as_given", str(ordered.uh)),
            ("witness", trees.format_tree(report.witness)),
            ("labels", " ".join(str(x) for x in report.labels)),
        ],
    )
    return EXIT_OK


def cmd_bijection(args) -> int:
    from . import bijection, trees

    if args.direction == "p":
        if args.order is None:
            raise ValueError("direction p requires --order")
        walk = bijection.parse_walk(args.input, args.order)
        tree = bijection.build_tree_from_walk(walk)
        if args.format == "text":
            print(trees.format_tree(tree))
        else:
            emit_object(args.format, [("tree", trees.format_tree(tree))])
    else:
        tree = trees.parse_tree(args.input)
        walk = bijection.build_walk_from_tree(tree)
        if args.format == "text":
            print(bijection.format_walk(walk))
        else:
            emit_object(
                args.format,
                [("order", str(walk.order)), ("walk", bijection.format_walk(walk))],
            )
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    results = verify.run_checks(args.scope)
    passed = verify.overall_passed(results)
    if args.format == "text":
        for r in results:
            detail = r.detail
            if r.budget is not None:
                detail += f"; elapsed {r.elapsed:.2f}s (budget {r.budget:.0f}s)"
            print(f"[{r.status:>10s}] {r.scope:9s} {r.name:30s} {r.elapsed:7.2f}s  {detail}")
        print(f"verify {args.scope}: {'OK' if passed else 'FAILED'}")
    else:
        # machine formats stay byte-deterministic: no elapsed times
        rows = [[r.status, r.scope, r.name, r.detail] for r in results]
        emit_table(args.format, ["status", "scope", "check", "detail"], rows)
    return EXIT_OK if passed else EXIT_VERIFY_FAILED


_HANDLERS = {
    "count": cmd_count,
    "table": cmd_table,
    "series": cmd_series,
    "root": cmd_root,
    "alpha": cmd_alpha,
    "walks": cmd_walks,
    "eigen": cmd_eigen,
    "uh": cmd_uh,
    "bijection": cmd_bijection,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _resolve_env_defaults(parser, args)
    if args.tol is not None and not args.tol > 0:
        parser.error("--tol must be positive")
    try:
        return _HANDLERS[args.command](args)
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (TreeParseError, WalkError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
