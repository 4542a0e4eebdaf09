"""Command-line behaviour: outputs, determinism, exit codes, fault injection."""

import dataclasses
import inspect
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from planetrees import cli, leaning_tree, series, verify, walk_count_table
from planetrees.intstr import int_to_str
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
        ("MAX_N", "abc", ["count", "3", "3"]),
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
    code, _, _ = run_cli(capsys, "count", "10", "3", "--method", "enumerate")
    assert code == 3
    code, out, _ = run_cli(
        capsys, "count", "10", "3", "--method", "enumerate",
        "--max-n", "10", "--unsafe-limits",
    )
    assert code == 0 and out.strip() == "4182"


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
    # within the linear budget, but the counts would reach 33,000 digits
    code, out, err = run_cli(capsys, "walks", "3", "--max-len", "100000")
    assert code == 3 and out == "" and "half-length squared" in err


def test_walks_budgets_loosen_with_unsafe_limits(capsys):
    # node count times half-length squared: 8 * 7906^2 = 5.0004e8 > 5e8
    code, out, err = run_cli(capsys, "walks", "3", "--max-len", "15812")
    assert code == 3 and out == "" and "half-length squared" in err
    code, out, _ = run_cli(capsys, "walks", "3", "--max-len", "15812", "--unsafe-limits", "--format", "csv")
    assert code == 0
    length, count = out.strip().splitlines()[-1].split(",")
    assert length == "15812"
    expected = series.count_trees(7907, 4) - series.count_trees(7907, 3)
    assert int(count[-4000:]) == expected % 10**4000
    assert len(count) == len(int_to_str(expected))


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
