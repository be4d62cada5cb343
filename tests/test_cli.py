import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nilorbits.cli import main, parse_ambient, parse_pair


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_ambient():
    t, amb = parse_ambient("sl6")
    assert str(t) == "A5" and amb == ("sl", 6)
    t, amb = parse_ambient("so10")
    assert str(t) == "D5" and amb == ("so", 10)
    t, amb = parse_ambient("so9")
    assert str(t) == "B4" and amb == ("so", 9)
    t, amb = parse_ambient("E6")
    assert str(t) == "E6" and amb is None
    t, amb = parse_ambient("C4")
    assert amb == ("sp", 8)


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


def test_verify_empty_suite_fails(capsys):
    # no pair of rank <= 1 is swept: regular has no cases at this bound
    code, out, _ = run(capsys, "verify", "--suite", "regular",
                       "--max-rank", "1")
    assert code == 1
    assert "0/0 passed" in out
    code, out, _ = run(capsys, "--json", "verify", "--suite", "regular",
                       "--max-rank", "1")
    assert code == 1
    assert json.loads(out)[0]["total"] == 0


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


# small sizes only: a free-text token carries no digits, so no argv asks
# for a huge matrix or rank
_COMMANDS = [["wdd"], ["orbit"], ["grade"], ["upsilon"], ["catalog"],
             ["oracle"], ["verify", "--suite", "kappa"], ["bogus"], []]
_WORDS = ["E6", "E8", "G2", "B4", "C4", "D4", "A1", "sl1", "sl4", "so4",
          "so9", "so10", "sp7", "sp8", "E6/C4", "E6/C4-diagram", "so10/gl5",
          "A5/C3-diagram", "so9/so8", "sl6/so6", "sp8/gl4", "sl4/", "D8/",
          "sl4/gl2+", "sp7/gl3", "(5,1)", "(4,4)", "(3,2)", "(2,2)", "()",
          "(0)", "E8(a4)", "--json", "--help", "--max-rank", "2", "-1"]
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
