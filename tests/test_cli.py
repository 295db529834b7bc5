import json
import os
import subprocess
import sys

import pytest

from plovlab import cli
from plovlab.cli import main


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
    assert report["results"]["top_right_zero"]
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
    assert results["pass"] and (results["k"], results["plov"]) == (10, 36)


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


def test_scan_usage(capsys):
    assert main(["scan", "--d", "9"]) == 2
    assert main(["scan", "--d", "3", "--count", "0"]) == 2


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


def test_import_loads_no_dataclasses():
    # in a fresh interpreter, because pytest itself imports both modules
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)

    def loaded(code):
        out = subprocess.run(
            [sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
            env=env, capture_output=True, text=True, check=True).stdout
        return set(out.split())

    added = loaded("import plovlab.cli") - loaded("pass")
    assert "plovlab.cli" in added
    assert not added & {"dataclasses", "inspect"}
