import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilorbits import gradings, oracle
from nilorbits.cli import main, parse_ambient, parse_pair
from nilorbits.oracle import oracle_sizes
from nilorbits.orbits import Partition, centralizer_dims, valid_partitions


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_ambient():
    t = parse_ambient("sl6")
    assert str(t) == "A5" and t.ambient == ("sl", 6)
    t = parse_ambient("so10")
    assert str(t) == "D5" and t.ambient == ("so", 10)
    t = parse_ambient("so9")
    assert str(t) == "B4" and t.ambient == ("so", 9)
    t = parse_ambient("E6")
    assert str(t) == "E6" and t.ambient is None
    assert parse_ambient("C4").ambient == ("sp", 8)


def test_parse_pair_grammar():
    assert parse_pair("E6/C4").descriptor == "C4"
    assert parse_pair("so10/gl5").descriptor == "gl5"
    assert parse_pair("A5/C3-diagram").descriptor == "sp6"
    assert parse_pair("so9/so8").descriptor == "so8+so1"
    with pytest.raises(Exception):
        parse_pair("E6")


def test_wdd_command(capsys):
    code, out, _ = run(capsys, "wdd", "C4", "(4,4)")
    assert code == 0
    assert "0, 2, 0, 2" in out.replace("(", "(").replace(")", ")")
    assert "dim g^e = 8" in out
    assert run(capsys, "orbit", "C4", "(4,4)") == (0, out, "")


def test_wdd_space_separated_partition(capsys):
    code, out, err = run(capsys, "wdd", "sl4", "(3,1)")
    assert code == 0 and "(3,1)" in out
    assert run(capsys, "wdd", "sl4", "(3 1)") == (code, out, err)


def test_wdd_json_roundtrip(capsys):
    code, out, _ = run(capsys, "--json", "wdd", "A4", "(3,2)")
    assert code == 0
    data = json.loads(out)
    assert data["wdd"]["labels"] == [1, 1, 1, 1]
    assert data["dim_centralizer"] == 8
    assert data["even"] is False


def test_wdd_exceptional_label(capsys):
    code, out, _ = run(capsys, "wdd", "E8", "E8(a4)")
    assert code == 0 and "dim g^e = 16" in out


def test_grade_command(capsys):
    code, out, _ = run(capsys, "grade", "E6/C4")
    assert code == 0
    assert "E6(a1)" in out
    assert "d0(0)=d1(4): True" in out
    code, out, _ = run(capsys, "grade", "so9/so8")
    assert code == 0
    assert "d0(0)=d1(2): False" in out


def test_grade_with_partition(capsys):
    code, out, _ = run(capsys, "--json", "grade", "sl6/so6", "(5,1)")
    data = json.loads(out)
    assert data["flags"]["d0(0)=d1(4)"] is True
    assert data["grid"]["d0"]["0"] == 3


def test_grade_takes_one_jordan_type_per_factor(capsys):
    code, out, err = run(capsys, "--json", "grade", "so9/so5+so4",
                         "(3,1,1)", "(3,1)")
    assert (code, err) == (0, "")
    data = json.loads(out)
    assert data["orbit"] == "(3,3,1,1,1)"
    p = parse_pair("so9/so5+so4")
    mg = oracle.oracle_grid(p, [Partition.parse("(3,1,1)"),
                                Partition.parse("(3,1)")])
    assert (mg.row0, mg.row1) == ((6, 0, 5, 0, 0), (8, 0, 5, 0, 1))
    assert data["grid"] == mg.to_json()
    code, out, err = run(capsys, "grade", "so9/so5+so4", "(3,1,1)")
    assert (code, out) == (2, "")
    assert err == ("error: (B4, so5+so4): g0 = so5+so4 takes one Jordan "
                   "type per factor: 2 expected, 1 given\n"), err


def test_closed_stdout_exits_2_without_a_traceback():
    # verify --json writes about 410 KB, more than a pipe buffer holds, so
    # the writer is still printing when the reader closes the pipe
    src = str(pathlib.Path(gradings.__file__).resolve().parents[1])
    with subprocess.Popen(
            [sys.executable, "-m", "nilorbits.cli", "--json", "verify"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src)) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 2, err
    assert "Traceback" not in err and err.startswith("error: "), err


def test_upsilon_command(capsys):
    code, out, _ = run(capsys, "upsilon", "E7/A7")
    assert code == 0 and "D6+A1" in out
    code, out, _ = run(capsys, "--json", "upsilon", "so12/gl6")
    data = json.loads(out)
    assert data["sigma_check"]["g0"] == "gl6"
    assert data["sigma_sigma_check"]["g0"] == "so6+so6"


def test_catalog_command(capsys):
    code, out, _ = run(capsys, "catalog", "E6")
    assert code == 0
    for desc in ("C4", "A5+A1", "D5+t1", "F4"):
        assert desc in out


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", "sl6", "(5,1)")
    assert code == 0
    assert "relations ok" in out and "dim z(e) = 7" in out
    code, out, _ = run(capsys, "--json", "oracle", "sl40", "(40)")
    assert code == 0
    data = json.loads(out)
    assert (data["centralizer"], data["ker_ad_squared"]) == (39, 78)


def test_oracle_takes_every_ambient_the_suite_checks(capsys):
    # so3, so4, so6 and sp2 have no Cartan label SimpleType accepts
    for kind, ns in oracle_sizes(6).items():
        for n in ns:
            for o in valid_partitions(kind, n):
                lam = "(" + ",".join(map(str, o.partition.parts)) + ")"
                code, out, err = run(capsys, "--json", "oracle",
                                     f"{kind}{n}", lam)
                assert code == 0, (kind, n, lam, err)
                data = json.loads(out)
                assert data["relations_ok"] is True
                assert data["centralizer"] == centralizer_dims(o)[0], o
    for argv in (["sl1", "(1)"], ["so2", "(1,1)"], ["sp7", "(7)"],
                 ["G2", "G2(a1)"]):
        code, out, err = run(capsys, "oracle", *argv)
        assert code == 2 and out == "" and "usage error" in err, argv


def test_oracle_command_builds_ad_blocks_once(capsys, monkeypatch):
    calls = []
    real = oracle._weight_blocks
    monkeypatch.setattr(oracle, "_weight_blocks",
                        lambda *a: calls.append(a) or real(*a))
    code, out, _ = run(capsys, "--json", "oracle", "so8", "(3,3,1,1)")
    assert code == 0
    assert (json.loads(out)["centralizer"], len(calls)) == (10, 1)


def test_verify_command(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "kappa")
    assert code == 0
    assert "48/48 passed" in out


def test_verify_respects_max_rank(capsys):
    code_small, out_small, _ = run(capsys, "verify", "--suite", "collapsing",
                                   "--max-rank", "4")
    code_big, out_big, _ = run(capsys, "verify", "--suite", "collapsing",
                               "--max-rank", "6")
    assert code_small == code_big == 0
    assert out_small != out_big


def test_verify_exit_code_on_failure(capsys, monkeypatch):
    from nilorbits import verify as v

    def broken():
        rep = v.VerificationReport("broken")
        rep.add("case", "claim", 1, 2)
        return rep

    monkeypatch.setitem(v.SUITES, "kappa", broken)
    code, out, _ = run(capsys, "verify", "--suite", "kappa")
    assert code == 1
    assert "FAIL" in out


def test_a_suite_that_raises_is_one_failed_case(capsys, monkeypatch):
    from nilorbits import verify as v

    def broken(*args):
        raise RuntimeError("triple relations failed")

    monkeypatch.setitem(v.SUITES, "grids", broken)
    code, out, err = run(capsys, "--json", "verify")
    assert (code, err) == (1, "")
    reports = json.loads(out)
    assert [r["suite"] for r in reports] == sorted(v.SUITES)
    assert [(r["suite"], r["failed"]) for r in reports if r["failed"]] == \
        [("grids", 1)]
    case, = next(r["cases"] for r in reports if r["suite"] == "grids")
    assert (case["id"], case["computed"]) == \
        ("grids raised", repr("RuntimeError: triple relations failed"))
    assert all(r["total"] for r in reports)
    with pytest.raises(KeyError, match="unknown suite"):
        v.run_suite("nosuch")


def test_verify_empty_suite_fails(capsys):
    # no pair of rank <= 1 is swept: regular has no cases at this bound
    code, out, _ = run(capsys, "verify", "--suite", "regular",
                       "--max-rank", "1")
    assert code == 1
    assert out.splitlines() == [
        "  FAIL no cases: a suite with no cases fails",
        "suite regular: 0/0 passed"]
    code, out, _ = run(capsys, "--json", "verify", "--suite", "regular",
                       "--max-rank", "1")
    assert code == 1
    assert json.loads(out)[0]["total"] == 0


def test_verify_regular_sweep_needs_a_swept_pair(capsys):
    # balanced and divisible report the regular sweep only when some pair
    # is swept: at --max-rank 1 balanced has no case left, and divisible
    # keeps only its fixed-bound cases
    code, out, _ = run(capsys, "verify", "--suite", "balanced",
                       "--max-rank", "1")
    assert code == 1
    assert "FAIL no cases" in out
    code, out, _ = run(capsys, "--json", "verify", "--suite", "divisible",
                       "--max-rank", "1")
    report, = json.loads(out)
    assert code == 0 and report["total"] == 35
    assert "regular sweep" not in [c["id"] for c in report["cases"]]


def test_verify_max_rank_below_1_exits_2(capsys):
    for argv in (["--max-rank", "0"],
                 ["--max-rank", "-3", "--suite", "kappa"]):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and out == "", argv
        assert "--max-rank must be at least 1" in err, argv


def test_usage_errors_exit_2(capsys):
    assert run(capsys, "wdd", "B2", "(2,2)")[0] == 2      # not a partition of 5
    assert run(capsys, "wdd", "so5", "(4,1)")[0] == 2     # invalid orbit
    assert run(capsys, "grade", "E6")[0] == 2             # missing descriptor
    assert run(capsys, "upsilon", "E6/D5+t1-diagram")[0] == 2  # inner class
    assert run(capsys, "oracle", "E8", "E8(a4)")[0] == 2  # oracle is classical
    assert run(capsys, "catalog", "sp7")[0] == 2          # sp needs even size
    assert run(capsys, "grade", "sp7/gl3")[0] == 2


@pytest.mark.parametrize("command", ["wdd", "catalog"])
@pytest.mark.parametrize("name", ["so3", "so4", "so6", "sp2"])
def test_small_matrix_names_are_usage_errors(capsys, command, name):
    # no Cartan label of the typed kind exists (B1, D2, D3, C1): the
    # message names what was typed, not a type the user never gave
    argv = [command, name] + (["(1)"] if command == "wdd" else [])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and name in err
    assert f"nilorbits oracle {name} <partition>" in err
    assert "family" not in err and "Traceback" not in err


@pytest.mark.parametrize("argv,typed", [
    (["wdd", "sl0", "(1)"], "sl0"),
    (["wdd", "sl1", "(1)"], "sl1"),
    (["wdd", "so1", "(1)"], "so1"),
    (["wdd", "so2", "(1,1)"], "so2"),
    (["wdd", "sp0", "()"], "sp0"),
    (["catalog", "E"], "'E'"),
    (["catalog", "A"], "'A'"),
    (["wdd", "A2", "E6"], "'E6'"),
    (["wdd", "sl3", "(3,a)"], "'(3,a)'"),
])
def test_bad_names_are_named_in_the_error(capsys, argv, typed):
    # the message names what was typed, not a Cartan type or an int()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert typed in err, err
    assert "family" not in err and "int()" not in err, err


@pytest.mark.parametrize("argv,typed", [
    (["grade", "so10/soX"], "'soX'"),
    (["grade", "so10/so"], "'so'"),
    (["grade", "sl4/gl2+glx"], "'glx'"),
    (["upsilon", "sp8/spa+sp2"], "'spa'"),
    (["grade", "so10/so4+so"], "'so'"),
])
def test_bad_descriptor_parts_are_named_in_the_error(capsys, argv, typed):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert typed in err and "int()" not in err, err


def test_decomposition_error_names_the_pair_and_the_orbit(capsys,
                                                          monkeypatch):
    # a non-regular e of g0 may mix the weight parities of M1: its grid is
    # the one the matrix oracle gives
    code, out, err = run(capsys, "grade", "so10/gl5", "(3,2)")
    assert (code, err) == (0, "")
    assert "e: (3,3,2,2)" in out
    assert "d0(i) 5 4 3 2 1\nd1(i) 4 4 2 2 0\n" in out, out
    # the regular element may not: a wrong regular Jordan type is refused
    # with a message that names the pair and the orbit
    monkeypatch.setattr(gradings, "factor_regular_parts", lambda f: (3, 2))
    gradings.decompose.cache_clear()
    try:
        code, out, err = run(capsys, "grade", "so10/gl5")
    finally:
        gradings.decompose.cache_clear()
    assert (code, out) == (2, "")
    assert "(D5, gl5)" in err and "(3,3,2,2)" in err, err
    assert "regular" in err, err


def test_pair_over_small_matrix_name_is_a_usage_error(capsys):
    code, out, err = run(capsys, "grade", "so6/so5+so1")
    assert (code, out) == (2, "")
    assert "so6" in err and "D3" not in err


def test_key_error_message_is_not_quoted(capsys):
    code, out, err = run(capsys, "wdd", "E6", "foo")
    assert (code, out) == (2, "")
    assert err.startswith("error: no orbit record 'foo' for E6;"), err


# small sizes only: a free-text token carries no digits, so no argv asks
# for a huge matrix or rank
_COMMANDS = [["wdd"], ["orbit"], ["grade"], ["upsilon"], ["catalog"],
             ["oracle"], ["verify", "--suite", "kappa"], ["bogus"], []]
_WORDS = ["E6", "E8", "G2", "B4", "C4", "D4", "A1", "sl1", "sl4", "so4",
          "so9", "so10", "sp7", "sp8", "E6/C4", "E6/C4-diagram", "so10/gl5",
          "A5/C3-diagram", "so9/so8", "sl6/so6", "sp8/gl4", "sl4/", "D8/",
          "sl4/gl2+", "sp7/gl3", "so10/soX", "so10/so", "sl4/gl2+glx",
          "sp8/spa+sp2", "so10/so4+so", "(5,1)", "(4,4)", "(3,2)", "(2,2)",
          "()", "(0)", "E8(a4)", "--json", "--help", "--max-rank", "2", "-1"]
_TOKENS = st.one_of(st.sampled_from(_WORDS),
                    st.text(alphabet="acdeglnopsACDEG/+()-,~ ", max_size=6))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_COMMANDS), st.lists(_TOKENS, max_size=4))
@example(["grade"], ["sl4/"])
@example(["upsilon"], ["D8/"])
@example(["grade"], ["sl4/gl2+"])
def test_any_argv_exits_0_1_or_2(command, rest):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(command + rest)
        except SystemExit as ex:  # argparse: usage errors and --help
            code = ex.code
    assert code in (0, 1, 2), command + rest
