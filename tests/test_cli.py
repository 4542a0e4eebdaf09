"""Command-line behaviour: outputs, determinism, exit codes, fault injection."""

import argparse
import contextlib
import csv
import dataclasses
import inspect
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from planetrees import (
    LimitError,
    TreeParseError,
    asymptotics,
    cli,
    leaning_tree,
    series,
    spectral,
    trees,
    ulam_harris,
    verify,
    walk_count_table,
)
from planetrees.series import TruncatedSeries


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_basic(capsys):
    code, out, _ = run_cli(capsys, "count", "3", "3")
    assert code == 0 and out.strip() == "6"
    code, out, _ = run_cli(capsys, "count", "5", "1")
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli(capsys, "count", "1", "4")
    assert code == 0 and out.strip() == "4"


def test_count_methods_and_agreement(capsys):
    for method in ("series", "compositions", "enumerate"):
        code, out, _ = run_cli(capsys, "count", "4", "3", "--method", method)
        assert code == 0 and out.strip() == "14"
    code, out, _ = run_cli(capsys, "count", "6", "4", "--all-methods")
    assert code == 0
    assert out.count("1055") == 3


def test_count_all_methods_skips_guarded_enumeration(capsys):
    code, out, _ = run_cli(capsys, "count", "15", "5", "--all-methods")
    assert code == 0
    assert "skipped (guard)" in out


def test_series_emits_decimal_string_array(capsys):
    code, out, _ = run_cli(capsys, "series", "3", "4")
    assert code == 0
    assert out.strip() == '["0","3","3","6"]'
    assert json.loads(out) == ["0", "3", "3", "6"]


def test_table_dimensions(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "4", "--max-k", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k=1,k=2,k=3"
    assert lines[3] == "3,0,1,6"
    assert len(lines) == 5


def test_table_equals_count_trees_cell_by_cell(capsys):
    # the table reads each column off one series of order max_n + 1;
    # count_trees(n, k) builds its own of order n + 1, split at its own label
    code, out, _ = run_cli(capsys, "table", "--max-n", "24", "--max-k", "9", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 25
    for n, line in enumerate(lines[1:], start=1):
        assert line.split(",") == [str(n)] + [str(series.count_trees(n, k)) for k in range(1, 10)]


def test_table_of_two_hundred_rows_and_twelve_labels(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "200", "--max-k", "12", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 201
    assert lines[200].split(",") == ["200", "0", "1"] + lines[200].split(",")[3:]
    assert lines[200].split(",")[-1] == str(series.count_trees_by_compositions(200, 12))


def test_bijection_both_directions(capsys):
    code, out, _ = run_cli(capsys, "bijection", "p", "--order", "2", "+1 +1 - -")
    assert code == 0 and out.strip() == "3(2(1))"
    code, out, _ = run_cli(capsys, "bijection", "w", "3(2(1))")
    assert code == 0 and out.strip() == "+1 +1 - -"
    code, out, _ = run_cli(capsys, "bijection", "p", "--order", "4", "")
    assert code == 0 and out.strip() == "5"


def test_bijection_usage_errors(capsys):
    code, _, err = run_cli(capsys, "bijection", "p", "+1 -")
    assert code == 2 and "requires --order" in err
    code, _, err = run_cli(capsys, "bijection", "w", "1(2)")
    assert code == 2 and "not a decreasing tree" in err
    code, _, err = run_cli(capsys, "bijection", "p", "--order", "2", "+9 -")
    assert code == 2


def exit_code(*argv):
    """Exit code of the CLI, run in-process with its output discarded; an
    uncaught exception (a traceback) fails the calling test."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            return exc.code


# "²", "٣" and "０" are digits to str.isdigit but not labels or ranks
WALK_TOKENS = ["+1", "+2", "+3", "+7", "-", "+0", "+", "-1", "+-1", "++1", "1", "x", "+1-", "()"]
WALK_TOKENS += ["+²", "+٣", "+０"]
walk_texts = st.one_of(
    st.lists(st.sampled_from(WALK_TOKENS), max_size=12).map(" ".join),
    st.text(alphabet="+-0123456789 x\t²٣０", max_size=24),
)
tree_texts = st.one_of(
    st.lists(
        st.sampled_from(["1", "2", "3", "9", "0", "(", ")", " ", "x", "12(", "²", "٣", "０"]),
        max_size=24,
    ).map("".join),
    st.text(alphabet="0123456789() x-²٣０", max_size=24),
)


@given(st.integers(min_value=-3, max_value=9), walk_texts)
@settings(max_examples=200, deadline=None)
def test_bijection_p_fuzz_exits_cleanly(order, text):
    assert exit_code("bijection", "p", "--order", str(order), text) in (0, 2)


@given(tree_texts)
@settings(max_examples=200, deadline=None)
def test_bijection_w_fuzz_exits_cleanly(text):
    assert exit_code("bijection", "w", text) in (0, 2)


@pytest.mark.parametrize("command", ["eigen", "uh"])
@pytest.mark.parametrize("text", ["²", "٣(1)", "2(1 ０)"])
def test_digits_beyond_ascii_are_positioned_usage_errors(capsys, command, text):
    code, out, err = run_cli(capsys, command, text)
    assert code == 2 and out == ""
    assert err.startswith("error: expected a label (at position ")


# bracket texts that parse: labels with or without leading zeros, any order
labels = st.from_regex(r"0{0,2}[1-9][0-9]{0,2}", fullmatch=True)
parsing_texts = st.recursive(
    labels,
    lambda inner: st.tuples(labels, st.lists(inner, min_size=1, max_size=4)).map(
        lambda pair: f"{pair[0]}({' '.join(pair[1])})"
    ),
    max_leaves=12,
)


@given(st.one_of(parsing_texts, tree_texts))
@example("01(1)")
@example("1(1 01(010))")
@settings(max_examples=150, deadline=None)
def test_eigen_prints_the_canonical_text_of_the_tree(text):
    try:
        tree = trees.parse_tree(text)
    except TreeParseError:
        assume(False)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli.main(["eigen", text, "--format", "json"]) == 0
    assert json.loads(buffer.getvalue())["tree"] == trees.format_tree(tree)


@pytest.mark.parametrize("tol", ["nan", "0", "-1"])
def test_tolerance_that_is_not_positive_is_usage_error(capsys, monkeypatch, tol):
    # a NaN tolerance compares false both ways, so it once returned the
    # unnarrowed seed bracket
    with pytest.raises(SystemExit) as exc:
        cli.main(["eigen", "1(1 1)", "--tol", tol])
    assert exc.value.code == 2 and "--tol must be positive" in capsys.readouterr().err
    monkeypatch.setenv("PLANETREES_TOL", tol)
    for argv in (["eigen", "1(1 1)"], ["alpha", "4"], ["root", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


FUZZ_TREES = ["1", "1(1 1)", "3(2 1(1))", "2(3)", "1(1 1(1 1) 1(1))", "1(", "", "x", "0"]
FUZZ_WALKS = ["", "+1 -", "+2 +1 - -", "+1 - +1 -", "-", "+0 -", "+3 -", "+1"]
FUZZ_TOLS = ["nan", "-nan", "inf", "0", "-1", "1e-3", "1e-12", "1e-300", "abc"]
#: values a PLANETREES_* variable is fuzzed with, good and bad
FUZZ_ENV = {
    "TOL": ["nan", "inf", "0", "-1", "abc", "1e-8"],
    "FORMAT": ["json", "csv", "xml", ""],
    "MAX_N": ["3", "-1", "x"],
    "MAX_K": ["2", "0", "1.5"],
    "METHOD": ["compositions", "enumerate", "bogus"],
    "ORDER": ["2", "-1", "two"],
    "UNSAFE_LIMITS": ["1", "0", ""],
}


@st.composite
def cli_calls(draw):
    """(argv, environment) for any subcommand, with small arguments."""

    def num(lo, hi):
        return str(draw(st.integers(lo, hi)))

    command = draw(st.sampled_from(sorted(cli._HANDLERS)))
    if command == "count":
        argv = ["count", num(-2, 7), num(-2, 5)]
        argv += draw(st.sampled_from([[], ["--all-methods"], ["--method", "enumerate"]]))
        if draw(st.booleans()):
            # at most one tree of any size, so safe under --unsafe-limits too
            argv = ["count", num(1, 3000), num(1, 2), "--method", "enumerate"]
    elif command == "table":
        argv = ["table", "--max-n", num(-1, 12), "--max-k", num(-1, 6)]
    elif command == "series":
        argv = ["series", num(-1, 8), num(-1, 30)]
    elif command in ("root", "alpha"):
        argv = [command, num(-1, 20)]
    elif command == "walks":
        argv = ["walks", num(-1, 4), "--max-len", num(-2, 10)]
        argv += draw(st.sampled_from([[], ["--list"]]))
    elif command == "eigen":
        argv = ["eigen", draw(st.sampled_from(FUZZ_TREES))]
        if draw(st.booleans()):
            argv = ["eigen", "--leaning", num(-2, 12)]
        argv += ["--trace-n", num(-2, 12)]
    elif command == "uh":
        argv = ["uh", draw(st.sampled_from(FUZZ_TREES))]
    elif command == "bijection":
        if draw(st.booleans()):
            argv = ["bijection", "p", draw(st.sampled_from(FUZZ_WALKS))]
            argv += draw(st.sampled_from([[], ["--order", num(-2, 4)]]))
        else:
            argv = ["bijection", "w", draw(st.sampled_from(FUZZ_TREES))]
    else:  # the fast scopes: the others take most of a second each
        argv = ["verify", draw(st.sampled_from(["roots", "spectral", "uh"]))]
    for flag, values in (("--tol", FUZZ_TOLS), ("--format", list(cli.FORMATS) + ["xml"])):
        if draw(st.booleans()):
            argv += [flag, draw(st.sampled_from(values))]
    if draw(st.booleans()):
        argv.append("--unsafe-limits")
    names = draw(st.lists(st.sampled_from(sorted(FUZZ_ENV)), unique=True, max_size=3))
    env = {cli.ENV_PREFIX + name: draw(st.sampled_from(FUZZ_ENV[name])) for name in names}
    return argv, env


@given(cli_calls())
@settings(max_examples=150, deadline=None)
def test_cli_fuzz_never_ends_in_a_traceback(call):
    argv, env = call
    if "--tol" in argv:
        tol = argv[argv.index("--tol") + 1]
    else:
        tol = env.get(cli.ENV_PREFIX + "TOL", "1")
    with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(
        io.StringIO()
    ), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            assert exc.code == 2, (argv, env)
        else:
            assert code in (0, 1, 2, 3), (argv, env)
            assert tol not in ("nan", "-nan", "0", "-1", "abc"), (argv, env)


def test_walk_list_past_the_recursion_limit(capsys):
    argv = ["walks", "1", "--max-len", "3000", "--list", "--unsafe-limits"]
    code, out, _ = run_cli(capsys, *argv)
    lines = out.splitlines()
    assert code == 0 and len(lines) == 1 + 1501
    assert lines[-1].split(None, 1) == ["3000", " ".join(["+1 -"] * 1500)]


def test_uh_report(capsys):
    code, out, _ = run_cli(capsys, "uh", "1(1 1(1))", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["uh"] == "3"
    assert payload["witness"] == "1(1(1) 1)"
    assert payload["labels"] == "1 2 3 3"


def test_eigen_report(capsys):
    code, out, _ = run_cli(capsys, "eigen", "--leaning", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == "4"
    assert payload["max_degree"] == "2"
    assert abs(float(payload["lambda1"]) - 1.6180339887498949) < 1e-9


@pytest.mark.parametrize("text", ["2(1)", "01(1)"])
def test_eigen_degree_one_upper_end_is_the_eigenvalue(capsys, text):
    # the single edge has lambda1 exactly 1; the degree formula's 2 sqrt(0)
    # would put the upper end below it
    code, out, _ = run_cli(capsys, "eigen", text, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_degree"] == "1"
    assert payload["degree_lower"] == payload["degree_upper"] == "1.0"
    assert float(payload["lambda1"]) <= float(payload["degree_upper"])


def test_walks_table(capsys):
    code, out, _ = run_cli(capsys, "walks", "2", "--max-len", "8", "--format", "csv")
    assert code == 0
    assert out.strip().splitlines() == [
        "length,count",
        "0,1",
        "2,2",
        "4,5",
        "6,13",
        "8,34",
    ]


def test_machine_output_is_deterministic(capsys):
    first = run_cli(capsys, "root", "5", "--format", "json")
    second = run_cli(capsys, "root", "5", "--format", "json")
    assert first == second
    first = run_cli(capsys, "alpha", "5", "--format", "csv")
    second = run_cli(capsys, "alpha", "5", "--format", "csv")
    assert first == second


def test_env_var_mirrors_flags(capsys, monkeypatch):
    monkeypatch.setenv("PLANETREES_FORMAT", "json")
    code, out, _ = run_cli(capsys, "count", "3", "3")
    assert code == 0
    assert json.loads(out) == {"n": "3", "k": "3", "count": "6"}
    # explicit flag wins over the environment
    code, out, _ = run_cli(capsys, "count", "3", "3", "--format", "text")
    assert out.strip() == "6"


@pytest.mark.parametrize(
    "name, value, argv",
    [
        ("TOL", "abc", ["count", "3", "3"]),
        ("MAX_N", "abc", ["table"]),
        ("MAX_K", "1.5", ["table"]),
        ("METHOD", "foo", ["count", "3", "3"]),
        ("FORMAT", "xml", ["count", "3", "3"]),
        ("ORDER", "two", ["bijection", "p", "+1 -"]),
    ],
)
def test_bad_environment_value_is_usage_error(capsys, monkeypatch, name, value, argv):
    monkeypatch.setenv("PLANETREES_" + name, value)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: PLANETREES_{name}: invalid" in err and repr(value) in err


def test_environment_is_read_on_every_call(capsys, monkeypatch):
    # the parser is built once per process, so the defaults must not be
    # baked into it by the first call
    for name in list(os.environ):
        if name.startswith("PLANETREES_"):
            monkeypatch.delenv(name)
    tree = "1(1 1(1 1) 1(1))"
    code, default_out, _ = run_cli(capsys, "eigen", tree)
    assert code == 0 and default_out.startswith("tree: ")
    code, flagged_out, _ = run_cli(capsys, "eigen", tree, "--tol", "0.01", "--format", "json")
    assert code == 0
    monkeypatch.setenv("PLANETREES_FORMAT", "json")
    monkeypatch.setenv("PLANETREES_TOL", "0.01")
    code, out, _ = run_cli(capsys, "eigen", tree)
    assert code == 0 and out == flagged_out
    default = dict(line.split(": ", 1) for line in default_out.splitlines())
    assert json.loads(out)["lambda1"] != default["lambda1"]  # the coarse tolerance shows


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "3", "3", "--bogus"])
    assert exc.value.code == 2


def test_guard_exit_code(capsys):
    code, _, err = run_cli(capsys, "count", "20", "8", "--method", "enumerate")
    assert code == 3 and "limited" in err


def test_unsafe_limits_loosens_guards(capsys):
    code, out, _ = run_cli(capsys, "count", "10", "3", "--method", "enumerate")
    assert code == 0 and out.strip() == "4182"
    # 6,610,331 trees, just past the count guard
    code, _, err = run_cli(capsys, "count", "6", "14", "--method", "enumerate")
    assert code == 3 and "6,610,331" in err
    code, out, _ = run_cli(capsys, "count", "6", "14", "--method", "enumerate", "--unsafe-limits")
    assert code == 0 and out.strip() == "6610331"


def test_table_defaults_live_in_the_environment_table(capsys, monkeypatch):
    assert cli._ENV_OPTIONS["max_n"][2] == 8 and cli._ENV_OPTIONS["max_k"][2] == 6
    _, default, _ = run_cli(capsys, "table", "--format", "csv")
    _, flagged, _ = run_cli(capsys, "table", "--max-n", "8", "--max-k", "6", "--format", "csv")
    assert default == flagged and len(default.splitlines()) == 9
    assert default.splitlines()[0] == "n,k=1,k=2,k=3,k=4,k=5,k=6"
    monkeypatch.setenv("PLANETREES_MAX_N", "3")
    monkeypatch.setenv("PLANETREES_MAX_K", "2")
    assert run_cli(capsys, "table", "--format", "csv")[1].splitlines() == [
        "n,k=1,k=2",
        "1,1,2",
        "2,0,1",
        "3,0,1",
    ]
    _, flagged, _ = run_cli(capsys, "table", "--max-n", "8", "--max-k", "6", "--format", "csv")
    assert flagged == default


def test_max_n_and_max_k_belong_to_table(capsys):
    code, out, _ = run_cli(capsys, "table", "--max-n", "2", "--max-k", "2", "--format", "csv")
    assert code == 0 and out.splitlines() == ["n,k=1,k=2", "1,1,2", "2,0,1"]
    for argv in (["count", "3", "3", "--max-n", "3"], ["walks", "2", "--list", "--max-k", "3"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2


def test_enumeration_past_the_recursion_limit(capsys):
    # the child-list caches recursed once per size and overflowed near n = 500
    for flags in ([], ["--unsafe-limits"]):
        code, out, _ = run_cli(capsys, "count", "2000", "2", "--method", "enumerate", *flags)
        assert code == 0 and out.strip() == "1"
        code, out, _ = run_cli(capsys, "count", "2000", "1", "--method", "enumerate", *flags)
        assert code == 0 and out.strip() == "0"


#: just inside each guard of a guarded command, with the output it must give
INSIDE_GUARDS = [
    (["count", "12", "3", "--method", "enumerate"], "28658"),
    (["count", "8", "6", "--method", "enumerate"], "1261070"),
    (["walks", "6", "--list", "--max-len", "12", "--format", "csv"], "12," + "+6 - " * 5 + "+6 -"),
    # a short id: the expected walk text is 4,900 characters
    pytest.param(
        ["walks", "1", "--list", "--max-len", "4896", "--format", "csv"],
        "4896," + "+1 - " * 2447 + "+1 -",
        id="walks-1-max-len-4896",
    ),
    (["eigen", "--leaning", "1000", "--format", "csv"], "leaning:1000,"),
    (["eigen", "--leaning", "2001", "--format", "csv"], "leaning:2001,"),
]
#: just outside a guard: each is refused before the work
OUTSIDE_GUARDS = [
    ["count", "9", "7", "--method", "enumerate"],
    ["count", "24", "3", "--method", "enumerate"],
    ["count", "3", "100000", "--method", "enumerate"],
    ["walks", "7", "--list", "--max-len", "14"],
    ["walks", "1000000", "--list", "--max-len", "2"],
    ["walks", "1", "--list", "--max-len", "4898"],
    ["eigen", "--leaning", "100000"],
    ["walks", "3", "--max-len", "100000"],
    ["walks", "1000", "--max-len", "2000"],
    ["alpha", "100000000"],
    ["root", "100000000000000"],
    ["alpha", "5000"],
]


@pytest.mark.parametrize("argv, expected", INSIDE_GUARDS)
def test_just_inside_a_guard_prints(capsys, argv, expected):
    started = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 30.0
    lines = out.splitlines()
    assert code == 0 and (expected in lines or lines[-1].startswith(expected))


@pytest.mark.parametrize("argv", OUTSIDE_GUARDS)
def test_just_outside_a_guard_exits_3_at_once(capsys, argv):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - started < 1.0
    assert code == 3 and out == "" and "limited to" in err


def test_root_and_alpha_guard_their_chain_steps(capsys, monkeypatch):
    # K(K + 1)/2 chain steps: the cap admits K = 4999 and refuses K = 5000
    assert 4999 * 5000 // 2 <= cli.CHAIN_STEP_LIMIT < 5000 * 5001 // 2
    monkeypatch.setattr(cli, "CHAIN_STEP_LIMIT", 15)
    for command in ("root", "alpha"):
        code, out, _ = run_cli(capsys, command, "5", "--format", "csv")
        assert code == 0 and out.splitlines()[-1].startswith("5,")
        code, out, err = run_cli(capsys, command, "6")
        assert (code, out, err) == (3, "", f"error: {command} limited to 15 chain steps (21 here)\n")
        code, out, _ = run_cli(capsys, command, "6", "--unsafe-limits", "--format", "csv")
        assert code == 0 and out.splitlines()[-1].startswith("6,")


@pytest.mark.parametrize("argv", [["eigen", "--leaning", "3"], ["eigen", "1(1 1)"], ["eigen", "1"]])
def test_trace_n_below_one_is_a_usage_error(capsys, argv):
    # it was read as 1 and printed walk_growth_halflen: 1
    for value in ("0", "-5"):
        assert run_cli(capsys, *argv, "--trace-n", value) == (2, "", "error: --trace-n must be positive\n")
    assert run_cli(capsys, *argv, "--trace-n", "1")[0] == 0


def test_verify_series_scope_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "series", "--format", "csv")
    assert code == 0
    assert "count-triple-agreement" in out
    assert "FAIL" not in out


def test_verify_detects_injected_fault(capsys, monkeypatch):
    # flip the sign of every non-constant coefficient of the complement series
    import planetrees.series as series_mod

    original = series_mod.sk_series

    def broken(k, order):
        s = original(k, order)
        return TruncatedSeries((s.coeffs[0],) + tuple(-c for c in s.coeffs[1:]))

    monkeypatch.setattr(series_mod, "sk_series", broken)
    code, out, _ = run_cli(capsys, "verify", "series", "--format", "csv")
    assert code == 1
    # the report names the first failing identity
    assert "series-complement" in out
    failing = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert failing and "series-complement" in failing[0]


def test_verify_bijection_scope_covers_every_walk_and_tree(capsys):
    code, out, _ = run_cli(capsys, "verify", "bijection", "--format", "json")
    assert code == 0
    details = {row["check"]: row["detail"] for row in json.loads(out)}
    assert details["roundtrip-walks"] == "identity on 5794 walks"
    assert details["roundtrip-trees"] == "identity on 191782 trees"


def test_verify_detects_a_wrong_shared_leaf(capsys, monkeypatch):
    # every leaf child of the root labelled L >= 2 becomes the shared leaf
    # labelled L - 1: still a decreasing tree, and built of shared leaves
    import planetrees.bijection as bijection_mod

    original = bijection_mod.build_tree_from_walk

    def broken(walk):
        t = original(walk)
        children = tuple(
            trees._leaf(c.label - 1) if not c.children and c.label >= 2 else c
            for c in t.children
        )
        return trees.PlaneTree(t.label, children)

    monkeypatch.setattr(bijection_mod, "build_tree_from_walk", broken)
    code, out, _ = run_cli(capsys, "verify", "bijection", "--format", "csv")
    assert code == 1
    status = {line.split(",")[2]: line.split(",")[0] for line in out.splitlines()[1:]}
    assert status["roundtrip-trees"] == "FAIL"
    assert status["image-match"] == "FAIL"


@pytest.mark.parametrize("fault", ["repeat", "swap"])
def test_verify_image_match_needs_the_canonical_order(monkeypatch, fault):
    # the same set of trees is not enough: a repeated tree or two trees out of
    # order in the family stream must fail image-match
    original = trees.iter_decreasing_trees

    def broken(n, k, **kwargs):
        family = list(original(n, k, **kwargs))
        if len(family) >= 2:
            if fault == "repeat":
                family.insert(1, family[0])
            else:
                family[0], family[1] = family[1], family[0]
        return iter(family)

    monkeypatch.setattr(trees, "iter_decreasing_trees", broken)
    row = next(row for row in verify.CHECKS if row.name == "image-match")
    result = verify.run_check(row)
    assert not result.passed
    assert result.detail == "image differs from the tree family at k=2, n=1"


@pytest.mark.parametrize(
    "fault, detail",
    [
        ("tree removed", "image differs from the tree family at k=4, n=3"),
        ("tree grown", "image differs from the tree family at k=4, n=3"),
        ("walk repeated", "duplicate image at k=4, n=3"),
        ("walk removed", "image differs from the tree family at k=4, n=3"),
        ("walks swapped", "image differs from the tree family at k=4, n=3"),
        ("walk lengthened", "image differs from the tree family at k=4, n=3"),
    ],
)
def test_verify_image_match_counts_both_streams(monkeypatch, fault, detail):
    # one stream is broken at k=4, n=3 alone: the 4-node trees with root
    # label 5 and the order-4 walks of length 6
    import planetrees.bijection as bijection_mod

    tree_stream, walk_stream = trees.iter_decreasing_trees, bijection_mod.iter_closed_walks

    def broken_trees(n, k, **kwargs):
        family = list(tree_stream(n, k, **kwargs))
        if (n, k) == (4, 5) and fault == "tree removed":
            del family[len(family) // 2]
        elif (n, k) == (4, 5):
            # one more leaf: still decreasing, and still after the tree before
            last = family[-1]
            family[-1] = trees.PlaneTree(last.label, last.children + (trees.PlaneTree(1),))
        return iter(family)

    def broken_walks(order, length, **kwargs):
        walks = list(walk_stream(order, length, **kwargs))
        if (order, length) == (4, 6):
            middle = len(walks) // 2
            if fault == "walk repeated":
                walks.insert(middle, walks[middle])
            elif fault == "walk removed":
                del walks[middle]
            elif fault == "walk lengthened":
                # one more leaf at the end: a closed walk after the last one
                last = walks[-1]
                walks[-1] = bijection_mod.Walk(order, last.moves + last.moves[-2:])
            else:
                walks[middle - 1], walks[middle] = walks[middle], walks[middle - 1]
        return iter(walks)

    if fault.startswith("tree"):
        monkeypatch.setattr(trees, "iter_decreasing_trees", broken_trees)
    else:
        monkeypatch.setattr(bijection_mod, "iter_closed_walks", broken_walks)
    row = next(row for row in verify.CHECKS if row.name == "image-match")
    result = verify.run_check(row)
    assert not result.passed
    assert result.detail == detail


@pytest.mark.parametrize("fault", ["dropped", "repeated"])
def test_a_lost_or_repeated_child_list_fails_the_count_agreement(monkeypatch, capsys, fault):
    # the enumeration count visits the stream's child lists one by one, so
    # one list lost or met twice under a root must show as a disagreement
    forests = trees._DecreasingTrees._forests

    def broken(self, m, bound):
        lists = forests(self, m, bound)
        if m == self._n - 1 and bound == 2:  # the child lists of a root labelled 3
            first = next(lists)
            if fault == "repeated":
                yield first
                yield first
        yield from lists

    monkeypatch.setattr(trees._DecreasingTrees, "_forests", broken)
    wrong = 2 if fault == "dropped" else 4
    assert verify.check_count_triple_agreement() == (
        False,
        f"methods disagree at n=1, k=3: series=3, compositions=3, enumeration={wrong}",
    )
    code, out, _ = run_cli(capsys, "count", "6", "5", "--all-methods")
    right = series.count_trees(6, 5)
    assert code == 1
    assert out.splitlines() == [
        f"series: {right}",
        f"compositions: {right}",
        f"enumerate: {right - 1 if fault == 'dropped' else right + 1}",
    ]


def _count_plans(monkeypatch) -> list:
    # every module that builds plans calls its own binding of subtree_plan
    made = []
    original = trees.subtree_plan

    def counted(t):
        made.append(t)
        return original(t)

    for module in (trees, spectral, ulam_harris):
        monkeypatch.setattr(module, "subtree_plan", counted)
    return made


def test_embedding_bound_reads_one_plan_per_tree(monkeypatch):
    plans = _count_plans(monkeypatch)
    bounded = []
    original = spectral.leaning_eigen_bound

    def counted(uh, *args, **kwargs):
        bounded.append(uh)
        return original(uh, *args, **kwargs)

    monkeypatch.setattr(spectral, "leaning_eigen_bound", counted)
    ok, detail = verify.check_embedding_bound()
    assert ok and detail == (
        "bound holds on 200 trees; beats the degree bound on 182/200; "
        "uh+1 < 2*degree predicted 123, of which 123 actually improved"
    )
    assert len(plans) == 200
    # one leaning bound per distinct Ulam-Harris value, 2..11 at this seed
    assert sorted(bounded) == list(range(2, 12))


@pytest.mark.parametrize(
    "check, trees_read",
    [(verify.check_degree_sandwich, 11), (verify.check_trace_agreement, 10)],
)
def test_spectral_rows_read_one_plan_per_leaning_tree(monkeypatch, check, trees_read):
    plans = _count_plans(monkeypatch)
    assert check()[0]
    assert len(plans) == trees_read


@pytest.mark.parametrize(
    "argv",
    [["verify", scope, "--format", "csv"] for scope in verify.SCOPES]
    + [["count", "5", "3", "--all-methods", "--format", "csv"]],
    ids=lambda argv: " ".join(argv[:2]),
)
def test_csv_rows_have_the_header_field_count(capsys, argv):
    # details such as "exact for n <= 6, k <= 5" hold commas, so fields are quoted
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out, newline=""))
    assert rows and all(len(row) == len(header) for row in rows)


TRICKY_CELLS = ['say "hi"', "back\\slash", "tab\tnew\nline\x01\x1f", "été ☃ 𝄞", "a, b", "", "0.5"]


@pytest.mark.parametrize(
    "columns, rows",
    [
        (["k", "lo", "b"], []),
        (["k", "lo", "b"], [["1", "2", "3"]]),
        (["z", "é", 'q"', "a,b"], [TRICKY_CELLS[:4], TRICKY_CELLS[3:]]),
        (["\\", "\x7f", "A", "a"], [TRICKY_CELLS[i : i + 4] for i in range(4)]),
        ([], [[], []]),
        ([], []),
    ],
)
def test_json_output_is_the_sorted_indented_dump(capsys, columns, rows):
    cli.emit_table("json", columns, rows)
    payload = [dict(zip(columns, row)) for row in rows]
    assert capsys.readouterr().out == json.dumps(payload, sort_keys=True, indent=2) + "\n"
    for row in rows or [[]]:
        cli.emit_object("json", list(zip(columns, row)))
        expected = json.dumps(dict(zip(columns, row)), sort_keys=True, indent=2)
        assert capsys.readouterr().out == expected + "\n"


def test_verify_machine_formats_are_byte_deterministic(capsys):
    first = run_cli(capsys, "verify", "roots", "--format", "json")
    second = run_cli(capsys, "verify", "roots", "--format", "json")
    assert first[0] == 0 and first == second
    assert "elapsed" not in first[1]
    # text mode still reports each budgeted sweep's time against its budget
    code, out, _ = run_cli(capsys, "verify", "roots")
    assert code == 0 and "; elapsed " in out and "(budget 5s)" in out


def test_verify_budget_fails_an_overrun():
    row = next(row for row in verify.CHECKS if row.name == "uh-leaning")
    result = verify.run_check(dataclasses.replace(row, budget=0.0))
    assert not result.passed and result.budget == 0.0 and result.elapsed >= 0.0


def test_verify_registry_shape():
    names = [row.name for row in verify.CHECKS]
    assert len(set(names)) == len(names)
    # each scope's rows are contiguous and the scopes come in SCOPES order
    scopes = [row.scope for row in verify.CHECKS]
    runs = [scope for i, scope in enumerate(scopes) if i == 0 or scopes[i - 1] != scope]
    assert tuple(runs) == verify.SCOPES
    for row in verify.CHECKS:
        fn = getattr(verify, row.function)
        assert not row.function.startswith("_") and inspect.isfunction(fn)
        assert fn.__module__ == verify.__name__
    assert [row.name for row in verify.CHECKS if row.advisory] == ["degree-sandwich-offset-claim"]
    assert {row.name: row.budget for row in verify.CHECKS if row.budget is not None} == {
        "count-triple-agreement": 10.0,
        "walk-count-identity": 10.0,
        "root-brackets": 5.0,
    }


def test_verify_text_report_shape(capsys):
    code, out, _ = run_cli(capsys, "verify", "uh")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[-1] == "verify uh: OK"
    assert all("[      pass]" in line for line in lines[:-1])


def test_walk_counts_past_the_int_string_limit(capsys):
    code, out, _ = run_cli(capsys, "walks", "3", "--max-len", "14000", "--format", "csv")
    assert code == 0
    last = out.strip().splitlines()[-1]
    length, count = last.split(",")
    assert length == "14000" and len(count) > 4300
    expected = walk_count_table(leaning_tree(3), 14000)[14000]
    # checked in pieces under the limit: the leading digits, the trailing
    # digits and the length together pin the decimal text
    assert int(count[-4000:]) == expected % 10**4000
    assert int(count[:100]) == expected // 10 ** (len(count) - 100)


def test_walks_guard_counts_digit_growth(capsys):
    # within the product budget, but the counts would reach 33,000 digits
    code, out, err = run_cli(capsys, "walks", "3", "--max-len", "100000")
    assert code == 3 and out == "" and "products times half-length / 2" in err


@pytest.mark.parametrize(
    "argv, budget",
    [
        # the work budget, linear in the half-length
        pytest.param(
            ["2000", "--max-len", "4000"], "5,000,000 products (3,986,030,019 here)", id="argv0-half-length"
        ),
        # the growth budget, products times the half-length again
        pytest.param(
            ["3", "--max-len", "100000"],
            "500,000,000 products times half-length / 2",
            id="argv1-half-length squared",
        ),
    ],
)
def test_walks_refuses_a_replay_before_building_the_tree(capsys, monkeypatch, argv, budget):
    # the budgets are checked on the label chain's work alone
    def unbuildable(*args, **kwargs):
        raise AssertionError("a leaning tree, plan or replay was built for a refused count")

    for module, name in ((trees, "leaning_tree"), (trees, "subtree_plan"), (spectral, "_replay")):
        monkeypatch.setattr(module, name, unbuildable)
    code, out, err = run_cli(capsys, "walks", *argv)
    assert code == 3 and out == ""
    assert err == f"error: walk counts limited to {budget}\n"


def test_walks_and_leaning_eigen_build_no_tree(capsys, monkeypatch):
    # walks and eigen --leaning read the label chain: no tree, plan or replay
    def unbuildable(*args, **kwargs):
        raise AssertionError("a leaning tree, plan or replay was built")

    for module, name in ((trees, "leaning_tree"), (trees, "subtree_plan"), (spectral, "_replay")):
        monkeypatch.setattr(module, name, unbuildable)
    for argv, expected in (
        (["walks", "3", "--max-len", "40"], 0),
        (["walks", "2000", "--max-len", "2"], 0),
        (["eigen", "--leaning", "24"], 0),
        (["walks", "3", "--max-len", "100000"], 3),
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == expected and (out != "") == (expected == 0), argv


def test_leaning_walk_guard_admits_every_input_the_tree_guards_admitted(monkeypatch):
    # the guard is a pure function of (K, half-length): with the chain
    # stubbed out, walk the grids and check that no input the tree-based
    # commands admitted is refused.  Their rules, as closed formulas:
    # walks K replayed over 2^K nodes after building K(K + 1)/2 references;
    # eigen --leaning K took first return, (h + 1)^2 for the root plus h^2
    # for each of the K - 1 shapes at depth 1, when within 12 times the
    # replay's work and the budget, else the replay.  Both rules admit a
    # range of h (the first-return work over h grows with h), so each
    # scan stops at the first refusal.
    monkeypatch.setattr(series, "_complement_inverse", lambda k, terms: [])

    def admitted(k, half):
        try:
            spectral.leaning_walk_counts(k, 2 * half)
        except LimitError:
            return False
        return True

    for k in range(40):
        size = 2**k
        for half in range(40_000):
            if not (size * (half + 1) <= 5e6 and size * half**2 <= 5e8 and k * (k + 1) // 2 <= 2_001_000):
                break
            assert admitted(k, half), ("walks", k, half)
    for k in range(1, 2001):
        size = 2**k
        for half in range(1, 3000):
            first_return = (half + 1) ** 2 + (k - 1) * half**2
            replay = size * (half + 1) <= 5e6 and size * half**2 <= 5e8
            if not (first_return <= min(12 * size * half, 5e6) or replay):
                break
            assert admitted(k, half), ("eigen", k, half)


@given(st.integers(0, 10), st.integers(0, 30))
@example(5, 30)  # the split label for the 31 terms of length 60, and one above
@example(6, 30)
@example(3, 5)  # the split label for 6 terms, and one above
@example(4, 5)
@settings(max_examples=40, deadline=None)
def test_walks_table_matches_the_replay(k, half):
    assert series._split_label(31) == 5 and series._split_label(6) == 3
    max_len = 2 * half
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["walks", str(k), "--max-len", str(max_len), "--format", "csv"]) == 0
    table = walk_count_table(leaning_tree(k), max_len)
    assert out.getvalue().splitlines() == ["length,count"] + [f"{m},{c}" for m, c in table.items()]


@pytest.mark.parametrize("max_n, max_k", [(8, 6), (30, 12), (200, 40), (400, 10)])
def test_table_matches_each_column_series(capsys, max_n, max_k):
    code, out, _ = run_cli(capsys, "table", "--max-n", str(max_n), "--max-k", str(max_k), "--format", "csv")
    assert code == 0
    columns = [series.gk_series(k, max_n + 1).coeffs for k in range(1, max_k + 1)]
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows == [[str(n)] + [str(c[n]) for c in columns] for n in range(1, max_n + 1)]


def test_walks_budgets_loosen_with_unsafe_limits(capsys):
    # products times half-length / 2: at K = 1, 31,624 * 31,623 / 2 > 5e8,
    # and every count is 1 (the walks of a single edge), so lifting is cheap
    code, out, err = run_cli(capsys, "walks", "1", "--max-len", "63246")
    assert code == 3 and out == "" and "products times half-length / 2" in err
    code, out, _ = run_cli(capsys, "walks", "1", "--max-len", "63244", "--format", "csv")
    assert code == 0 and out.splitlines()[-1] == "63244,1"
    code, out, _ = run_cli(capsys, "walks", "1", "--max-len", "63246", "--unsafe-limits", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == [f"{length},1" for length in range(0, 63247, 2)]


def test_unsafe_limits_lift_the_eigen_walk_budgets(capsys):
    # the replay of the star K_(1,3): 4 * 11181^2 > 5e8, and it counts 3^h
    code, out, err = run_cli(capsys, "eigen", "1(1 1 1)", "--trace-n", "11181")
    assert code == 3 and out == "" and "half-length squared" in err
    code, out, _ = run_cli(capsys, "eigen", "1(1 1 1)", "--trace-n", "11181", "--unsafe-limits", "--format", "json")
    assert code == 0
    assert float(json.loads(out)["walk_growth"]) == pytest.approx(math.sqrt(3), rel=1e-12)


DEEP = 100_000


def test_deep_path_uh(capsys):
    text = "1(" * (DEEP - 1) + "1" + ")" * (DEEP - 1)
    code, out, _ = run_cli(capsys, "uh", text, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["uh"] == payload["uh_as_given"] == str(DEEP)
    assert payload["witness"] == text
    assert payload["labels"] == " ".join(str(i) for i in range(1, DEEP + 1))


def test_deep_path_bijection_both_directions(capsys):
    tree = "".join("%d(" % (DEEP - i) for i in range(DEEP - 1)) + "1" + ")" * (DEEP - 1)
    walk = " ".join(["+1"] * (DEEP - 1) + ["-"] * (DEEP - 1))
    code, out, _ = run_cli(capsys, "bijection", "w", tree, "--format", "json")
    assert code == 0
    assert json.loads(out) == {"order": str(DEEP - 1), "walk": walk}
    code, out, _ = run_cli(capsys, "bijection", "p", "--order", str(DEEP - 1), walk)
    assert code == 0 and out.strip() == tree


def test_deep_path_eigen(capsys):
    n = 10_000
    code, out, _ = run_cli(capsys, "eigen", "1(" * (n - 1) + "1" + ")" * (n - 1), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["nodes"] == payload["uh"] == str(n)
    exact = 2 * math.cos(math.pi / (n + 1))
    assert abs(float(payload["lambda1"]) - exact) <= 1e-10 * exact
    # closed walks of length 20 from the end of a long path are Dyck paths
    catalan = math.comb(20, 10) // 11
    assert float(payload["walk_growth"]) == pytest.approx(catalan ** (1 / 20), rel=1e-12)


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-m", "planetrees", "count", "3", "3"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 0 and done.stdout == "6\n"


def test_cli_import_and_eigen_leave_numpy_unloaded():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    script = (
        "import contextlib, io, sys\n"
        "import planetrees.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['eigen', '1(1 1(1))']) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0 and done.stdout == "False\n"


LAYERS = {"series", "asymptotics", "trees", "bijection", "spectral", "ulam_harris", "verify"}


@pytest.mark.parametrize(
    ("argv", "loaded"),
    [
        ([], set()),  # building the parser alone
        (["count", "20", "3"], {"series"}),
        (["count", "20", "3", "--method", "compositions"], {"series"}),
        (["count", "8", "3", "--method", "enumerate"], {"series", "trees"}),
        (["count", "8", "3", "--all-methods"], {"series", "trees"}),
        (["series", "3", "20"], {"series"}),
        (["table"], {"series"}),
        (["root", "5"], {"asymptotics"}),
        (["alpha", "5"], {"asymptotics"}),
        (["walks", "2", "--max-len", "6"], {"asymptotics", "series", "spectral", "trees"}),
        (["walks", "2", "--max-len", "4", "--list"], {"bijection", "series", "trees"}),
        (["eigen", "1(1 1(1))"], {"asymptotics", "series", "spectral", "trees", "ulam_harris"}),
        (["eigen", "--leaning", "3"], {"asymptotics", "series", "spectral", "trees", "ulam_harris"}),
        (["uh", "1(1 1(1))"], {"series", "trees", "ulam_harris"}),
        (["bijection", "w", "3(2(1))"], {"bijection", "series", "trees"}),
        (["verify", "roots"], LAYERS),
    ],
    ids=lambda value: (" ".join(value) or "parser") if isinstance(value, list) else None,
)
def test_each_command_loads_only_the_layers_it_calls(argv, loaded):
    # a fresh process, so that the layers in sys.modules are the command's own
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    script = (
        "import contextlib, io, sys\n"
        "import planetrees.cli as cli\n"
        "argv = sys.argv[1:]\n"
        "if argv:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0\n"
        "else:\n"
        "    cli.build_parser()\n"
        "print(*sorted(name for name in sys.modules if name.startswith('planetrees.')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    layers = {name.partition(".")[2] for name in done.stdout.split()} & LAYERS
    assert layers == loaded


def test_the_parser_copies_are_the_layers_values():
    # the parser shows these without loading their layers
    assert cli.SCOPES == verify.SCOPES
    assert cli.DEFAULT_EIGEN_TOL == spectral.DEFAULT_EIGEN_TOL
    assert cli.DEFAULT_ROOT_TOL == asymptotics.DEFAULT_ROOT_TOL


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "3", "3"],
        ["root", "300", "--format", "json"],
        ["table", "--max-n", "200", "--max-k", "10"],
    ],
    ids=" ".join,
)
def test_a_closed_stdout_exits_1_without_a_traceback(argv):
    # the read end is closed before the child starts, so its first write fails
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "planetrees", *argv],
            stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write)
    assert done.returncode == 1 and done.stderr == ""


def test_root_and_alpha_honour_tol(capsys, monkeypatch):
    for name in list(os.environ):
        if name.startswith("PLANETREES_"):
            monkeypatch.delenv(name)
    # without --tol root keeps its own default, 1e-12
    code, default, _ = run_cli(capsys, "root", "30")
    assert code == 0
    assert run_cli(capsys, "root", "30", "--tol", "1e-12")[1] == default
    code, flagged, _ = run_cli(capsys, "root", "30", "--tol", "1e-6")
    assert code == 0 and flagged != default
    monkeypatch.setenv("PLANETREES_TOL", "1e-6")
    assert run_cli(capsys, "root", "30")[1] == flagged
    monkeypatch.delenv("PLANETREES_TOL")
    code, out, _ = run_cli(capsys, "root", "30", "--tol", "1e-6", "--format", "json")
    widths = [float(row["width"]) for row in json.loads(out)]
    assert max(widths) <= 1e-6 and min(widths[1:]) > 1e-12
    # alpha is at float precision at every tol, so its output cannot show
    # the tolerance: a spy checks that --tol and PLANETREES_TOL reach
    # growth_constants, and that without them its default applies
    seen = []
    real = asymptotics.growth_constants

    def spy(k, **tolerance):
        seen.append(tolerance)
        return real(k, **tolerance)

    monkeypatch.setattr(asymptotics, "growth_constants", spy)
    assert run_cli(capsys, "alpha", "4")[0] == 0
    assert run_cli(capsys, "alpha", "4", "--tol", "1e-16")[0] == 0
    monkeypatch.setenv("PLANETREES_TOL", "1e-9")
    assert run_cli(capsys, "alpha", "4")[0] == 0
    assert seen == [{}] * 3 + [{"tol": 1e-16}] * 3 + [{"tol": 1e-9}] * 3


def test_enumeration_guard_counts_trees(capsys):
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "count", "9", "7", "--method", "enumerate")
    assert code == 3 and out == "" and "limited to 6,000,000 trees" in err
    assert time.perf_counter() - started < 5.0  # refused before any tree is built
    code, out, _ = run_cli(capsys, "count", "8", "6", "--method", "enumerate")
    assert code == 0 and out.strip() == "1261070"
    code, out, _ = run_cli(capsys, "count", "9", "7", "--all-methods")
    assert code == 0 and "enumerate: skipped (guard)" in out
    assert cli.lifted(argparse.Namespace(unsafe_limits=False), "max_trees") == {}
    lifted = cli.lifted(argparse.Namespace(unsafe_limits=True), "max_trees")
    assert lifted == {"max_trees": math.inf}
