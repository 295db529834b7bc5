import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from plovlab import cli, golden, incidence
from plovlab.cli import main
from plovlab.exactmat import CheckFailed, ExactMatrix

from oracles import from_rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_matrix_examples(capsys):
    code, out = run_cli(capsys, "reproduce", "matrix-examples", "--deterministic")
    assert code == 0
    report = json.loads(out)
    assert report["pass"]
    assert report["results"]["A_5_3_6"]["match"]
    assert report["results"]["A_5_3_7"]["match"]
    assert "duration_seconds" not in report


def test_table1(capsys):
    code, out = run_cli(capsys, "reproduce", "table1")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["shape"] == [16, 18]
    assert "top_right_zero" not in report["results"]
    assert report["results"]["sub_block_A536"]
    assert report["results"]["sub_block_A537"]


def test_table2_small(capsys):
    code, out = run_cli(capsys, "reproduce", "table2", "--dmax", "5")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["cells"]["4,0"] == {
        "nullity": 2, "expected": 2, "match": True}
    assert report["results"]["cells"]["5,0"]["nullity"] == 3


def test_table2_csv(capsys):
    code, out = run_cli(capsys, "reproduce", "table2", "--dmax", "4",
                        "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,e,nullity,expected,match"
    assert lines[1] == "4,0,2,2,True"


def test_table2_truncate(capsys):
    code, out = run_cli(capsys, "reproduce", "table2",
                        "--truncate", "2,1,1", "--n", "6")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["nullity"] == 2
    assert main(["reproduce", "table2", "--truncate", "1,0,1"]) == 2
    assert main(["reproduce", "table2", "--truncate", "1,1,1", "--n", "2"]) == 2


def test_table2_extended_gate(capsys):
    code = main(["reproduce", "table2", "--dmax", "8"])
    assert code == 2


def usage_error_line(capsys, *argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("argv, what", [
    (("--truncate", "1,1,1,1,1,1,1,1,1,1"), "--truncate sums to d = 10"),
    (("--truncate", "1,1,1,1,1,1,1,1,1,1", "--extended"),
     "--truncate sums to d = 10"),
    (("--dmax", "10", "--extended"), "--dmax 10"),
])
def test_table2_above_cap(capsys, argv, what):
    err = usage_error_line(capsys, "reproduce", "table2", *argv)
    assert err == f"error: {what}, above the cap of 9\n"


@pytest.mark.parametrize("argv, message", [
    (("2,1,1,1,1,1,1",), "requires --extended"),
    (("3,2,2,2",), "requires --extended"),
    (("1",), "t needs at least two entries"),
    (("3",), "t needs at least two entries"),
    (("2", "--n", "0"), "t needs at least two entries"),
])
def test_table2_truncate_usage(capsys, argv, message):
    err = usage_error_line(capsys, "reproduce", "table2", "--truncate", *argv)
    assert message in err


def test_table2_truncate_d7_allowed(capsys):
    # the largest cell without --extended: Table 2 at d = 7, e = 5
    code, out = run_cli(capsys, "reproduce", "table2",
                        "--truncate", "2,1,1,1,1,1", "--n", "35")
    assert code == 0
    assert json.loads(out)["results"]["nullity"] == 0


def test_table2_n_needs_truncate(capsys):
    err = usage_error_line(capsys, "reproduce", "table2", "--n", "6")
    assert err == "error: --n applies only with --truncate\n"


def test_table2_truncate_cell_has_no_csv(capsys):
    # a --truncate cell has no CSV payload: --format csv is a usage error,
    # and --format json prints the cell's report
    argv = ("reproduce", "table2", "--truncate", "2,1,1,1", "--n", "13")
    err = usage_error_line(capsys, *argv, "--format", "csv")
    assert err == "error: --format csv has no payload for a --truncate cell\n"
    code, out = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["n"] == 13


def test_table2_truncate_n_above_dk(capsys):
    # above n = d*k, k = 2r, P(k, d, n) is empty; n = d*k is the last cell
    for n in ("17", "100"):
        err = usage_error_line(capsys, "reproduce", "table2",
                               "--truncate", "2,1,1", "--n", n)
        assert err == "error: --n must be between r(r+1) = 6 and d*k = 16\n"
    code, out = run_cli(capsys, "reproduce", "table2",
                        "--truncate", "2,1,1", "--n", "16")
    assert code == 0
    assert json.loads(out)["results"]["n"] == 16


@pytest.mark.parametrize("argv, what", [
    (("reproduce", "kernel", "--truncate", "1,1"), "--truncate 1,1"),
    (("reproduce", "kernel", "--format", "csv"), "--format csv"),
    (("plov", "--abelian-blocks", "2", "--format", "csv"), "--format csv"),
    (("reproduce", "table2", "--k", "3"), "--k 3"),
    (("reproduce", "table2", "--dmax", "5", "--truncate", "2,1,1"),
     "--truncate"),
    (("reproduce", "bogus"), "'bogus'"),
    (("reproduce", "kernel", "--d", "x"), "'x'"),
    (("scan", "--count", "3"), "--d"),
    # a flag is taken only as spelled in full
    (("plov", "--abelian-blocks", "2", "--det"), "--det"),
    # a newline in the input is printed as \n
    (("reproduce", "kernel", "a\nb"), "a\\nb"),
])
def test_usage_error_is_one_line(capsys, argv, what):
    # main returns 2, not SystemExit, and stderr is one line naming the input
    assert what in usage_error_line(capsys, *argv)


@pytest.mark.parametrize("argv, err", [
    (("plov", "--model", ""), "[Errno 2] No such file or directory: ''"),
    (("reproduce", "table2", "--truncate", ""),
     "bad --truncate tuple: invalid int value: ''"),
    (("reproduce", "table1", "--out", ""),
     "cannot write --out : No such file or directory"),
])
def test_empty_value_is_refused(capsys, argv, err):
    # an empty value is read as given, not as an absent flag
    assert usage_error_line(capsys, *argv) == f"error: {err}\n"


@pytest.mark.parametrize("argv, err", [
    (("reproduce", "kernel", "--d", "\u0663"),
     "argument --d: invalid int value: '\u0663'"),
    (("scan", "--d", "3", "--count", "0_1"),
     "argument --count: invalid int value: '0_1'"),
    (("reproduce", "table2", "--truncate", "2,1,1,1", "--n", "1_3"),
     "argument --n: invalid int value: '1_3'"),
    (("reproduce", "table2", "--truncate", "1_0,1"),
     "bad --truncate tuple: invalid int value: '1_0'"),
    (("plov", "--abelian-blocks", " 2"),
     "bad --abelian-blocks list: invalid int value: ' 2'"),
    (("reproduce", "fullrank", "--k", "+2", "--d", "2", "--n", "3"),
     "argument --k: invalid int value: '+2'"),
    (("scan", "--d", "2", "--seed", "-0"),
     "argument --seed: invalid int value: '-0'"),
    (("reproduce", "table2", "--dmax", "07"),
     "argument --dmax: invalid int value: '07'"),
])
def test_int_is_read_only_as_typed(capsys, argv, err):
    # int() alone reads each of these as another int, which the report's
    # parameters would show beside the command as typed
    assert usage_error_line(capsys, *argv) == f"error: {err}\n"


def test_negative_seed_is_an_int(capsys):
    assert main(["scan", "--d", "2", "--count", "1", "--seed", "-5",
                 "--deterministic"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["parameters"]["seed"] == -5
    assert report["results"]["rows"][0]["seed"] == -5


@pytest.mark.parametrize("argv, parameters", [
    (("reproduce", "kernel", "--d", "2"),
     {"cmd": "reproduce", "target": "kernel", "d": 2, "deterministic": True}),
    (("reproduce", "table1"), {"cmd": "reproduce", "target": "table1",
                               "format": "json", "deterministic": True}),
    (("plov", "--abelian-blocks", "2"),
     {"cmd": "plov", "abelian_blocks": "2", "deterministic": True}),
])
def test_report_parameters_are_the_command_flags(capsys, argv, parameters):
    code, out = run_cli(capsys, *argv, "--deterministic")
    assert code == 0
    assert json.loads(out)["parameters"] == parameters


def test_help_exits_0(capsys):
    assert main(["reproduce", "kernel", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--d D" in out and "--format" not in out


def command_parsers(parser) -> dict:
    """Each command's and each target's parser under parser, keyed by its
    path of names from the top."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found[(name,)] = sub
                found.update({(name, *path): p
                              for path, p in command_parsers(sub).items()})
    return found


def test_branch_parsers_match_the_full_tree():
    # a named branch builds only the parsers on its path (a command with
    # targets, named alone, keeps all its targets); the named parser and
    # those below it have the help text of the same parser in the full
    # tree, while the ones above lack the other choices, which only an
    # unknown name or a help request, both given the full tree, would show
    full = command_parsers(cli.build_parser())
    assert len(full) == 8
    for path, parser in full.items():
        branch = command_parsers(cli.build_parser(list(path)))
        on_path = {path[:i] for i in range(1, len(path) + 1)}
        below = {p for p in full if p[:len(path)] == path}
        assert set(branch) == on_path | below, path
        for p in below:
            assert branch[p].format_help() == full[p].format_help(), p


PARSER_CASES = [
    [], ["bogus"], ["--bogus", "plov"], ["--help"], ["-h", "plov"],
    ["plov"], ["plov", "--bogus"], ["plov", "--abelian-blocks"],
    ["plov", "--model", "m.json", "--abelian-blocks", "3"],
    ["plov", "--abelian-blocks", "3", "reproduce"], ["plov", "-hh"],
    ["reproduce"], ["reproduce", "nope"], ["reproduce", "--help"],
    ["reproduce", "kernel", "--d", "x"], ["reproduce", "kernel", "--dd", "3"],
    ["reproduce", "kernel", "--d"], ["reproduce", "kernel", "-hx"],
    ["reproduce", "kernel", "--d", "3", "--deterministic"],
    ["reproduce", "table2", "--dmax", "4", "--truncate", "1,1"],
    ["reproduce", "table1", "--format", "xml"],
    ["reproduce", "fullrank", "--k", "1", "--d", "2", "--n", "1"],
    ["scan"], ["scan", "--d", "3", "extra"], ["scan", "--d", "3", "--help"],
]


@pytest.mark.parametrize("argv", PARSER_CASES)
def test_branch_parse_matches_the_full_tree(capsys, argv):
    # the parsed flags, the exit code and every byte of a usage error or a
    # help text are the full tree's
    def parse(parser):
        try:
            return vars(parser.parse_args(argv)), None, capsys.readouterr()
        except SystemExit as exc:
            return None, exc.code, capsys.readouterr()

    assert parse(cli.build_parser(argv)) == parse(cli.build_parser())


def test_kernel(capsys):
    code, out = run_cli(capsys, "reproduce", "kernel", "--d", "2")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["nullity"] == 1
    assert report["results"]["kernel"] == ["1", "-1"]


def test_kernel_d6(capsys):
    code, out = run_cli(capsys, "reproduce", "kernel", "--d", "6", "--deterministic")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["nullity"] == 1
    assert results["kappa"] == "10,8,6,4,2,0"
    # prod_{j=1..5} (2j)!
    assert results["kappa_entry"] == "5056584744960000"


# sha256 of the --deterministic stdout of `reproduce kernel --d D`, taken
# before the kernel was certified by a rank bound on the Vandermonde vector
KERNEL_SHA256 = {
    2: "35c50e1b2ea723260b6f004ecf9823fc5d85d7e04ec3f4dab9d2a0a3431ad490",
    3: "36a190dab2bbfcb900d97155e5e46259fca6ddee0f0715745e0b2bce715c2935",
    4: "5ea18bd828044f7c0558bf14b4c14e151bce3871171f60e67d029abe5c8ab15d",
    5: "251f042f12893e2525a7b0b9c8f1712ac928fbe78f115f91490a9dda0cf2f043",
    6: "6b8f9ff1a3c72d1b552ad384db9153b1844fef846397766e5f5c3ee54121bcc5",
}


@pytest.mark.parametrize("d", sorted(KERNEL_SHA256))
def test_kernel_report_bytes(capsys, d):
    code, out = run_cli(capsys, "reproduce", "kernel", "--d", str(d),
                        "--deterministic")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == KERNEL_SHA256[d]


TRUNCATED_CELL = ("reproduce", "table2", "--truncate", "2,1,1,1,1,1", "--n")
# sha256 of the --deterministic stdout of each command, taken before the
# incidence rows were built directly, without probing every part with bump;
# table1's JSON hash was taken again after its constant "top_right_zero"
# field was dropped, and again after its constant "diagonal_blocks_match"
# was, since block_form raises on a wrong diagonal block; the plov, scan and
# fullrank hashes were taken after their always-true "pass", "parity", "gap"
# and "upper_bound" fields and fullrank's always-empty "failures" left the
# reports, and kernel --d 4 is its KERNEL_SHA256 pin
REPORT_SHA256 = {
    ("reproduce", "matrix-examples"):
        "189506b29e7d751610e21bea55f22b9bbd5cbbe6a7fa569b6a15e7bbd3abcd03",
    ("reproduce", "matrix-examples", "--format", "csv"):
        "dc08b5d5324808d3f91521afa8939fb9ec3fbb2ebd575caeebee9218d9df1452",
    ("reproduce", "table1"):
        "577d5cbf40e491b358e1194d6f4b821e85638b60f5cd14c3eef225cf15ea5d29",
    ("reproduce", "table1", "--format", "csv"):
        "ee7bb0d902b73dc9093d0544dc80201ef2041c8ccc5fee6428be644cfe1f2585",
    TRUNCATED_CELL + ("30",):
        "42d595078e093e41fab4ac658f9e8f405c6c20cb54d8c5d5baf053f9a6f4c9fb",
    TRUNCATED_CELL + ("31",):
        "1f545f0b5b30b64b85ce0b3de36fc571072c36efac722f89688292e2012a67bb",
    TRUNCATED_CELL + ("32",):
        "125ddfd1559eb0ab10b7b7c58586889fe7e49f1a0dd756a0af5b863315041b98",
    TRUNCATED_CELL + ("33",):
        "2c1041fe674cd6d4674bf2ca0031cdbe0c92c5e5e5488f069a7fea40ffaae4ce",
    TRUNCATED_CELL + ("34",):
        "411d491396e6f0357055c37f3cec71601814b6d3184371812e04723c92afee25",
    TRUNCATED_CELL + ("35",):
        "ba8496841a672bbc0a69bf49aade7fdec439a38865fd357f547504e18d9617cc",
    ("plov", "--abelian-blocks", "3,1"):
        "b5d8d5c3addd7963cfd3c7e5ab173a54f6387930a951def3c188bb940ece6be4",
    ("plov", "--abelian-blocks", "4"):
        "e061f5a6d65a6ebff665bd1fdf2a29c8be33687d86995de3fcdba9a6c0fce659",
    ("scan", "--d", "3", "--count", "4", "--seed", "9"):
        "3c603990b69e64b24baf0e3a13cf5afb95dfab23260cc42fb668bb70a51c3602",
    ("reproduce", "fullrank", "--d", "3"):
        "b7a4c1d721fcea7b542b4cb57e9e175a150894c247d12ffca93ce1732234b5ca",
    ("reproduce", "kernel", "--d", "4"):
        "5ea18bd828044f7c0558bf14b4c14e151bce3871171f60e67d029abe5c8ab15d",
}


@pytest.mark.parametrize("argv", sorted(REPORT_SHA256), ids=" ".join)
def test_report_bytes(capsys, argv):
    code, out = run_cli(capsys, *argv, "--deterministic")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[argv]


def test_table1_builds_each_matrix_once(capsys, monkeypatch):
    # count the calls under every name the package binds build_incidence to
    calls = []
    inner = incidence.build_incidence

    def counted(k, d, n):
        calls.append((k, d, n))
        return inner(k, d, n)

    modules = [m for name, m in sys.modules.items()
               if name == "plovlab" or name.startswith("plovlab.")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is inner:
                monkeypatch.setattr(module, attr, counted)
    code, _ = run_cli(capsys, "reproduce", "table1", "--deterministic")
    assert code == 0
    assert sorted(calls) == [(5, 3, 6), (5, 3, 7), (5, 4, 12), (6, 3, 6),
                             (6, 4, 12)]


def test_kernel_usage(capsys):
    assert main(["reproduce", "kernel", "--d", "99"]) == 2


def test_fullrank_single(capsys):
    code, out = run_cli(capsys, "reproduce", "fullrank",
                        "--k", "5", "--d", "3", "--n", "6")
    assert code == 0
    assert json.loads(out)["results"]["instances"] == 1


def test_fullrank_usage(capsys):
    assert main(["reproduce", "fullrank", "--k", "5", "--d", "3", "--n", "99"]) == 2
    assert main(["reproduce", "fullrank", "--k", "5"]) == 2
    # one instance is capped at k, d <= 6, as the sweep is
    capsys.readouterr()
    assert main(["reproduce", "fullrank", "--k", "12", "--d", "12", "--n", "70"]) == 2
    assert main(["reproduce", "fullrank", "--k", "2", "--d", "7", "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --k 12, above the cap of 6\n"
                            "error: --d 7, above the cap of 6\n")
    assert main(["reproduce", "fullrank", "--k", "6", "--d", "6", "--n", "3"]) == 0


@pytest.mark.parametrize("argv", [("--k", "0", "--d", "2", "--n", "1"),
                                  ("--k", "2", "--d", "0", "--n", "1")])
def test_fullrank_names_the_flag_below_one(capsys, argv):
    # n = 1 is in range: the error names the flag at 0, not n
    assert main(["reproduce", "fullrank", *argv]) == 2
    captured = capsys.readouterr()
    flag = argv[argv.index("0") - 1]
    assert captured.out == ""
    assert captured.err == f"error: {flag} 0, below the minimum of 1\n"


def test_plov_blocks(capsys):
    code, out = run_cli(capsys, "plov", "--abelian-blocks", "2,1,1")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["plov"] == 6
    assert report["results"]["k"] == 2


def test_plov_identity(capsys):
    code, out = run_cli(capsys, "plov", "--abelian-blocks", "1,1,1,1")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["plov"] == 4
    assert report["results"]["k"] == 0


def test_report_command_is_the_given_argv(capsys, monkeypatch):
    # the report names the arguments main was called with, not the
    # process's sys.argv; with no arguments given it reads sys.argv
    monkeypatch.setattr(sys, "argv", ["plovlab", "reproduce", "table1"])
    code, out = run_cli(capsys, "plov", "--abelian-blocks", "2")
    assert code == 0
    assert json.loads(out)["command"] == "plov --abelian-blocks 2"
    assert main() == 0
    assert json.loads(capsys.readouterr().out)["command"] == "reproduce table1"


def test_plov_model_file(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"type": "abelian", "g": 2, "A": [[1, 1], [0, 1]]}')
    code, out = run_cli(capsys, "plov", "--model", str(path))
    assert code == 0
    report = json.loads(out)
    assert report["results"]["plov"] == 4


def test_plov_entropy_rejected(capsys, tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"type": "abelian", "g": 2, "A": [[2, 1], [1, 1]]}')
    assert main(["plov", "--model", str(path)]) == 1


def test_failed_pipeline_check_names_the_model(capsys, tmp_path):
    # the check's own text comes first, then the model's A
    path = tmp_path / "model.json"
    path.write_text('{"type": "abelian", "g": 2, "A": [[2, 1], [1, 1]]}')
    err = check_failed_line(capsys, "plov", "--model", str(path))
    assert err.startswith("check failed: action is not quasi-unipotent ")
    assert err.endswith(" [model A = [[2, 1], [1, 1]]]\n")


def check_failed_line(capsys, *argv):
    """Run argv, whose check fails: it exits 1 with nothing on stdout and
    one ``check failed: `` line on stderr, whose message is cut at
    USAGE_MAX_CHARS and marked; return that line."""
    assert main(list(argv)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.startswith("check failed: ") and err.count("\n") == 1
    message = err[len("check failed: "):-1]
    assert len(message) <= cli.USAGE_MAX_CHARS or re.fullmatch(
        r".{%d}\.\.\. \[\d+ more characters\]" % cli.USAGE_MAX_CHARS, message)
    return err


def test_failed_kernel_check_is_one_line(capsys, monkeypatch):
    # one Vandermonde entry off by one: the truncated kernel is still one
    # vector, which the changed vector no longer spans; the line names the
    # check, d and the exact nullity, and holds no vector
    inner = incidence.vandermonde_coeff_vector

    def off_by_one(r, d):
        v = inner(r, d)
        # the last, lex-smallest, partition is below kappa, so it is kept
        return v[:-1] + (v[-1] + 1,)

    monkeypatch.setattr(incidence, "vandermonde_coeff_vector", off_by_one)
    err = check_failed_line(capsys, "reproduce", "kernel", "--d", "4")
    assert err == ("check failed: kernel theorem at d=4: the truncated kernel "
                   "has dimension 1 and is not spanned by the Vandermonde "
                   "vector\n")


def test_failed_full_rank_is_one_line(capsys, monkeypatch):
    # a rank one below the bound fails the sweep at its first instance:
    # nothing on stdout and one line naming it
    inner = incidence.matrix_rank
    monkeypatch.setattr(incidence, "matrix_rank", lambda m: inner(m) - 1)
    err = check_failed_line(capsys, "reproduce", "fullrank", "--deterministic")
    assert err == "check failed: full rank of A_{1,2,1}: rank 0, expected 1\n"


def test_failed_block_form_is_one_line(capsys, monkeypatch):
    # a nonzero top-right block of A_{6,4,12} fails Table 1's block form
    inner = ExactMatrix.blocks

    def corrupted(self, i, j):
        tl, tr, bl, br = inner(self, i, j)
        if tr.nrows and tr.ncols:
            tr = from_rows(tr.nrows, tr.ncols,
                                       [{0: 1}] + [{}] * (tr.nrows - 1))
        return tl, tr, bl, br

    monkeypatch.setattr(ExactMatrix, "blocks", corrupted)
    err = check_failed_line(capsys, "reproduce", "table1", "--deterministic")
    assert err == ("check failed: block form: nonzero top-right block in "
                   "A_{6,4,12}\n")


def test_wrong_diagonal_block_is_one_line(capsys, monkeypatch):
    # a top-left block of A_{6,4,12} other than A_{6,3,6} fails Table 1's
    # block form
    inner = ExactMatrix.blocks

    def corrupted(self, i, j):
        tl, tr, bl, br = inner(self, i, j)
        if tl.nrows and tl.ncols:
            tl = from_rows(tl.nrows, tl.ncols, [{0: 7}] + [{}] * (tl.nrows - 1))
        return tl, tr, bl, br

    monkeypatch.setattr(ExactMatrix, "blocks", corrupted)
    err = check_failed_line(capsys, "reproduce", "table1", "--deterministic")
    assert err == ("check failed: block form: diagonal blocks of A_{6,4,12} "
                   "differ from A_{6,3,6} and A_{5,4,12}\n")


@pytest.mark.parametrize("argv, name, change, line", [
    (("table2", "--dmax", "5"), "TABLE2",
     lambda t: {**t, (5, 1): 2, (5, 2): 1},
     "table2 cell d=5, e=1: nullity 0, expected 2"),
    (("table2", "--dmax", "4", "--format", "csv"), "TABLE2",
     lambda t: {**t, (4, 0): 3},
     "table2 cell d=4, e=0: nullity 2, expected 3"),
    (("matrix-examples",), "MATRIX_5_3_7",
     lambda m: m[:2] + [[0, 1, 5, 2, 0, 0]] + m[3:],
     "matrix-examples A_{5,3,7} cell mu=4,1,1, lambda=4,3,0: entry 0, "
     "expected 5"),
    (("matrix-examples",), "MATRIX_5_3_6", lambda m: m[:4],
     "matrix-examples A_{5,3,6}: shape 5x6 differs from golden"),
    (("table1",), "TABLE1_ROWS", lambda r: r[:2] + [r[3], r[2]] + r[4:],
     "table1 row 2: 6,3,2,0, expected 6,3,1,1"),
    (("table1",), "TABLE1_COLS", lambda c: c[:-1],
     "table1 column 17: 3,3,3,3, expected none"),
    (("table1",), "TABLE1_ENTRIES", lambda e: {**e, ((6, 3, 1, 1), (6, 3, 3, 0)): 4},
     "table1 cell mu=6,3,1,1, lambda=6,3,3,0: entry 0, expected 4"),
])
def test_golden_mismatch_names_its_cell(capsys, monkeypatch, argv, name,
                                        change, line):
    # a golden table that differs from the computed one: stdout is the
    # report of the computed values and exit 1 as before, and one stderr
    # line names the first cell that differs
    monkeypatch.setattr(golden, name, change(getattr(golden, name)))
    code = main(["reproduce", *argv, "--deterministic"])
    captured = capsys.readouterr()
    assert code == 1
    if "csv" in argv:
        assert ",False\n" in captured.out
    else:
        assert json.loads(captured.out)["pass"] is False
    assert captured.err == f"check failed: {line}\n"


@pytest.mark.parametrize("text", [
    '{"type": "abelian", "g": 2}',
    '[[1, 0], [0, 1]]',
    '{"type": "abelian", "g": 2, "A": [[1, 0.5], [0, 1]]}',
    '{"type": "abelian", "g": 2, "A": [[1, 0], [0]]}',
    '{"type": "abelian", "g": 2.0, "A": [[1, 0], [0, 1]]}',
    pytest.param('[' * 100000, id="nested-100000"),
])
def test_plov_malformed_model(capsys, tmp_path, text):
    path = tmp_path / "model.json"
    path.write_text(text)
    assert main(["plov", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_plov_model_with_an_unknown_key(capsys, tmp_path):
    # an ample class "H" is not a model key yet: the model does not run with
    # H = I in its place, and the error names the key
    path = tmp_path / "model.json"
    path.write_text('{"type": "abelian", "A": [[1, 1], [0, 1]], '
                    '"H": [[2, 0], [0, 1]]}')
    assert main(["plov", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == 'error: unknown model key "H"\n'


# Each input that plov cannot read, and the one line naming its flag
PLOV_INPUT_ERRORS = {
    "directory": "cannot read --model {path}: Is a directory",
    "not-utf-8": "--model {path} is not UTF-8: invalid start byte at byte 0",
    "empty": "--model {path} is not JSON: Expecting value at line 1 column 1",
    "devnull": "--model {path} is not JSON: Expecting value at line 1 column 1",
    "empty-block": "bad --abelian-blocks list: invalid int value: ''",
}


@pytest.mark.parametrize("case", PLOV_INPUT_ERRORS)
def test_plov_input_error_names_its_flag(capsys, tmp_path, case):
    path = tmp_path / "model.json"
    if case == "directory":
        path.mkdir()
    elif case == "not-utf-8":
        path.write_bytes(b"\xff{}")
    elif case == "empty":
        path.write_bytes(b"")
    elif case == "devnull":
        path = os.devnull
    argv = (("plov", "--abelian-blocks", "2,,1") if case == "empty-block"
            else ("plov", "--model", str(path)))
    assert usage_error_line(capsys, *argv) == (
        f"error: {PLOV_INPUT_ERRORS[case].format(path=path)}\n")


def test_plov_model_is_read_as_utf_8(capsys, tmp_path):
    # JSON is UTF-8 whatever the locale: a non-ASCII string reaches the
    # model check intact
    path = tmp_path / "model.json"
    path.write_bytes('{"type": "ab\u00e9lien", "A": [[1]]}'.encode())
    assert usage_error_line(capsys, "plov", "--model", str(path)) == (
        "error: unsupported model type 'ab\u00e9lien'\n")


@pytest.mark.parametrize("blocks", ["7", "4,3", "2,2,2,1"])
def test_plov_blocks_above_cap(capsys, blocks):
    assert main(["plov", "--abelian-blocks", blocks]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: block sizes sum to 7, above the cap of 6\n"


def test_plov_model_above_cap(capsys, tmp_path):
    path = tmp_path / "model.json"
    a = [[int(j in (i, i + 1)) for j in range(8)] for i in range(8)]
    path.write_text(json.dumps({"type": "abelian", "A": a}))
    assert main(["plov", "--model", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: model has g = 8, above the cap of 6\n"


def test_plov_model_entry_above_bit_cap(capsys, tmp_path):
    # a 4001-digit entry is refused in one line before any arithmetic on it
    path = tmp_path / "model.json"
    path.write_text('{"type": "abelian", "A": [[1, 1%s], [0, 1]]}' % ("0" * 4000))
    assert main(["plov", "--model", str(path), "--deterministic"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        'error: "A" has a 13288-bit entry, above the cap of 64 bits\n')


def test_plov_model_entry_at_bit_cap(capsys, tmp_path):
    # a 64-bit entry at g = 6: the Jordan block (6,) with 2^63 as its first
    # superdiagonal entry runs the whole pipeline
    a = [[int(j in (i, i + 1)) for j in range(6)] for i in range(6)]
    a[0][1] = 2 ** 63
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"type": "abelian", "A": a}))
    code, out = run_cli(capsys, "plov", "--model", str(path), "--deterministic")
    assert code == 0
    results = json.loads(out)["results"]
    assert (results["k"], results["plov"]) == (10, 36)


@pytest.mark.parametrize("source", ["blocks", "model"])
def test_plov_g1_rejected(capsys, tmp_path, source):
    argv = ["plov", "--abelian-blocks", "1"]
    if source == "model":
        path = tmp_path / "model.json"
        path.write_text('{"type": "abelian", "A": [[1]]}')
        argv = ["plov", "--model", str(path)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: model has g = 1; the pipeline needs g >= 2\n"


def test_plov_usage(capsys):
    assert main(["plov"]) == 2
    assert main(["plov", "--abelian-blocks", "2", "--model", "x.json"]) == 2
    assert main(["plov", "--model", "/nonexistent/path.json"]) == 2


def test_scan_deterministic(capsys):
    code, out1 = run_cli(capsys, "scan", "--d", "3", "--count", "4",
                         "--seed", "9", "--deterministic")
    assert code == 0
    code, out2 = run_cli(capsys, "scan", "--d", "3", "--count", "4",
                         "--seed", "9", "--deterministic")
    assert code == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["results"]["passed"] == 4
    assert set(report["results"]["observed_plov"]) <= {3, 5, 9}


def test_scan_gap_d3(capsys):
    code, out = run_cli(capsys, "scan", "--d", "3", "--count", "12", "--seed", "1")
    assert code == 0
    report = json.loads(out)
    for p in report["results"]["observed_plov"]:
        assert not (5 < p < 9)


def test_failed_scan_model_is_one_line(capsys, monkeypatch):
    # one model's pipeline fails: the report still lists every row, the
    # failed one with its "error", and one line names its Jordan type and
    # seed
    inner = cli.run_pipeline

    def failing(model):
        if model.jordan == (2, 1):
            raise CheckFailed("injected")
        return inner(model)

    monkeypatch.setattr(cli, "run_pipeline", failing)
    code = main(["scan", "--d", "3", "--count", "4", "--seed", "9",
                 "--deterministic"])
    captured = capsys.readouterr()
    assert code == 1
    report = json.loads(captured.out)
    assert report["pass"] is False
    assert report["results"]["passed"] == 3
    assert report["results"]["rows"][1] == {
        "jordan": [2, 1], "seed": 10, "error": "injected"}
    assert captured.err == (
        "check failed: scan model jordan=2,1, seed=10: injected\n")


def test_scan_usage(capsys):
    assert main(["scan", "--d", "9"]) == 2
    assert main(["scan", "--d", "3", "--count", "0"]) == 2


def test_scan_count_cap(capsys, monkeypatch):
    # a count above the cap exits 2 with one line before any model is built
    def no_model(*args):
        raise AssertionError("a model was built")

    monkeypatch.setattr(cli, "random_conjugate", no_model)
    assert main(["scan", "--d", "3", "--count", str(cli.SCAN_MAX_COUNT + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --count must be between 1 and {cli.SCAN_MAX_COUNT}\n")


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code = main(["reproduce", "matrix-examples", "--out", str(path)])
    assert code == 0
    assert json.loads(path.read_text())["pass"]


def test_out_unwritable(capsys, tmp_path):
    path = tmp_path / "missing" / "report.json"
    err = usage_error_line(capsys, "plov", "--abelian-blocks", "2",
                           "--out", str(path))
    assert err.startswith(f"error: cannot write --out {path}: ")


def test_out_unwritable_fails_before_work(capsys, tmp_path, monkeypatch):
    # the --out check runs before the pipeline, so no finished work is lost
    def no_work(model):
        raise AssertionError("the pipeline ran before the --out check")

    monkeypatch.setattr(cli, "run_pipeline", no_work)
    path = tmp_path / "missing" / "report.json"
    err = usage_error_line(capsys, "plov", "--abelian-blocks", "2",
                           "--out", str(path))
    assert err == (f"error: cannot write --out {path}: "
                   "No such file or directory\n")
    # a writable path is left as it was: absent, or with its old contents
    fresh = tmp_path / "fresh.json"
    kept = tmp_path / "kept.json"
    kept.write_text("old")
    for target in (fresh, kept):
        with pytest.raises(AssertionError):
            main(["plov", "--abelian-blocks", "2", "--out", str(target)])
    assert not fresh.exists() and kept.read_text() == "old"


def fresh_interpreter(code, *argv, cwd=None):
    """Run code in a fresh interpreter that imports plovlab from this
    checkout, with argv as ``sys.argv[1:]``; stdout and stderr are bytes."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          cwd=cwd, capture_output=True)


def loaded_modules(code):
    """The modules a fresh interpreter holds after running code, read from
    the last line of its stderr, since code may print to stdout.  A fresh
    interpreter, because pytest itself imports these modules."""
    run = fresh_interpreter(
        f"{code}\nimport sys\nprint(*sys.modules, file=sys.stderr)")
    assert run.returncode == 0, run.stderr
    return set(run.stderr.decode().splitlines()[-1].split())


def added_modules(code):
    """The modules that running code loads beyond a bare interpreter's."""
    return loaded_modules(code) - loaded_modules("pass")


def test_import_loads_no_dataclasses():
    added = added_modules("import plovlab.cli")
    assert "plovlab.cli" in added
    assert not added & {"dataclasses", "inspect"}
    # the traced benchmark run (perfbench/op.py) patches the traced
    # functions only in the modules that this import loads, and the kernel
    # workload times functions of symfun
    assert "plovlab.symfun" in added


# fractions imports decimal and numbers
FRACTION_MODULES = {"fractions", "decimal", "numbers"}


def main_code(*commands):
    """Source that runs main on each argv in turn and exits 1 at the first
    one that fails."""
    return (f"from plovlab.cli import main\n"
            f"for argv in {commands!r}:\n"
            f"    if main(list(argv)):\n"
            f"        raise SystemExit(f'failed: {{argv}}')\n")


def test_matrix_commands_load_no_fractions():
    # every matrix entry is an int and every rank is read mod a prime, so
    # neither the import nor a matrix command loads fractions
    assert not added_modules("import plovlab.cli") & FRACTION_MODULES
    assert not added_modules(main_code(
        ("reproduce", "table1"),
        ("reproduce", "matrix-examples"),
        ("reproduce", "table2", "--truncate", "2,1,1,1", "--n", "13"),
        ("reproduce", "kernel", "--d", "4"),
        ("reproduce", "fullrank", "--k", "3", "--d", "3", "--n", "4"),
    )) & FRACTION_MODULES
    # the volume polynomial is rational, so plov loads fractions: the check
    # can fail
    assert "fractions" in added_modules(
        main_code(("plov", "--abelian-blocks", "3")))


# An exit handler registered before anything else runs after every later
# one, so it reports how many objects were frozen once the others had run
FREEZE_PROBE = """import atexit, gc, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count(), file=sys.stderr))
"""
RUN_MAIN = "from plovlab.cli import main\nsys.exit(main(sys.argv[1:]))\n"

# one command of each benchmark workload's kind, at a small size
EXIT_FREEZE_COMMANDS = (
    ("reproduce", "kernel", "--d", "4", "--deterministic"),
    ("reproduce", "table2", "--truncate", "2,1,1,1", "--n", "13",
     "--deterministic"),
    ("plov", "--abelian-blocks", "3", "--deterministic"),
)


def frozen_at_exit(run) -> int:
    """The probe's count from a run whose only stderr line is the probe's."""
    assert run.returncode == 0, run.stderr
    found = re.fullmatch(rb"frozen (\d+)\n", run.stderr)
    assert found, run.stderr
    return int(found.group(1))


@pytest.mark.parametrize("argv", EXIT_FREEZE_COMMANDS)
def test_main_freezes_the_heap_at_exit(argv):
    # the freeze runs among the exit handlers, before the interpreter's
    # finalization collections, which then skip the heap the command left
    run = fresh_interpreter(FREEZE_PROBE + RUN_MAIN, *argv)
    assert run.stdout
    assert frozen_at_exit(run) > 0


def test_import_registers_no_freeze():
    # only main registers the freeze: importing the CLI leaves the
    # importer's collector as it was
    assert frozen_at_exit(
        fresh_interpreter(FREEZE_PROBE + "import plovlab.cli\n")) == 0


def test_freeze_is_registered_once_and_runs_at_exit():
    # main called twice registers the freeze once, and it runs only at exit
    code = ("import atexit, gc, sys\n"
            "calls = []\n"
            "def counted():\n"
            "    calls.append(None)\n"
            "    freeze()\n"
            "freeze, gc.freeze = gc.freeze, counted\n"
            "atexit.register(lambda: print('at exit', len(calls), "
            "file=sys.stderr))\n"
            "from plovlab.cli import main\n"
            "for _ in range(2):\n"
            "    assert main(sys.argv[1:]) == 0\n"
            "print('after main', len(calls), file=sys.stderr)\n")
    run = fresh_interpreter(code, "plov", "--abelian-blocks", "2",
                            "--deterministic")
    assert run.returncode == 0, run.stderr
    assert run.stderr == b"after main 0\nat exit 1\n"


@pytest.mark.parametrize("argv", EXIT_FREEZE_COMMANDS)
def test_out_file_holds_the_bytes_of_stdout(tmp_path, argv):
    # no finalizer runs at exit, so --out is closed before main returns:
    # the file holds the bytes that the same command prints when its --out
    # path leads to stdout
    for place in ("file", "stdout"):
        (tmp_path / place).mkdir()
    os.symlink("/dev/stdout", tmp_path / "stdout" / "report.json")
    runs = {place: fresh_interpreter("import sys\n" + RUN_MAIN, *argv,
                                     "--out", "report.json",
                                     cwd=tmp_path / place)
            for place in ("file", "stdout")}
    assert [(r.returncode, r.stderr) for r in runs.values()] == [(0, b"")] * 2
    assert runs["file"].stdout == b"" and runs["stdout"].stdout
    assert (tmp_path / "file" / "report.json").read_bytes() == (
        runs["stdout"].stdout)


# one command of each kind, each run under two interpreters
PORTABLE_COMMANDS = (
    ("reproduce", "table1", "--format", "csv"),
    ("reproduce", "table2", "--truncate", "2,1,1", "--n", "6"),
    ("reproduce", "kernel", "--d", "5"),
    ("plov", "--abelian-blocks", "4,1"),
    ("scan", "--d", "4", "--count", "8"),
)


def oldest_python():
    """An interpreter of the oldest Python that pyproject.toml accepts, or
    None: a pyenv-installed one first, then one on PATH, each checked by
    running it."""
    root = Path(__file__).parent.parent
    text = (root / "pyproject.toml").read_text()
    version = re.search(r'requires-python = ">=(\d+\.\d+)"', text).group(1)
    pyenv = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    candidates = sorted(pyenv.glob(f"versions/{version}.*/bin/python"))
    candidates.append(shutil.which(f"python{version}"))
    probe = "import sys; print('%d.%d' % sys.version_info[:2])"
    for exe in filter(None, candidates):
        out = subprocess.run([exe, "-c", probe], capture_output=True, text=True)
        if out.stdout.strip() == version:
            return str(exe)
    return None


def test_oldest_supported_python_prints_the_same_bytes():
    # requires-python admits an older Python than the one the suite runs
    # on; the --deterministic output must not depend on which one
    exe = oldest_python()
    if exe is None:
        pytest.skip("no interpreter of the oldest supported Python found")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    for argv in PORTABLE_COMMANDS:
        old, new = [(p.returncode, p.stdout, p.stderr) for p in (
            subprocess.run([python, "-m", "plovlab.cli", *argv,
                            "--deterministic"], env=env, capture_output=True)
            for python in (exe, sys.executable))]
        assert old == new, argv
        assert old[0] == 0 and old[1], argv
