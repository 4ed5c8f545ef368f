"""Command-line interface: exit codes, reports, determinism."""

import io
import json
import os

import pytest

from hpt.cli import main


def run_cli(args):
    out = io.StringIO()
    code = main(args, out=out)
    return code, out.getvalue()


@pytest.fixture()
def tmp_hpt(tmp_path):
    def write(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return write


def test_check_empty_file(tmp_hpt):
    path = tmp_hpt("empty.hpt", "")
    code, out = run_cli(["check", path])
    assert code == 0
    assert "0 declaration(s)" in out


def test_check_reports_unbound_name(tmp_hpt):
    path = tmp_hpt("bad.hpt", "def f : missing := missing\n")
    code, out = run_cli(["check", path])
    assert code == 1
    assert f"{path}:1:9: error:" in out
    assert "unbound name" in out


def test_check_continues_across_files(tmp_hpt):
    bad = tmp_hpt("a.hpt", "def f : missing := missing\n")
    good = tmp_hpt("b.hpt", "axiom B : Type\naxiom b : B\n")
    code, out = run_cli(["check", bad, good])
    assert code == 1
    assert "2 declaration(s)" in out  # the second file still checked


def test_check_stops_within_file(tmp_hpt):
    path = tmp_hpt(
        "c.hpt", "axiom B : Type\ndef f : missing := missing\naxiom c : B\n"
    )
    code, out = run_cli(["check", path])
    assert code == 1
    assert "1 declaration(s)" in out  # nothing after the error in the file


def test_check_open_corpus(tmp_hpt):
    path = tmp_hpt(
        "use.hpt",
        "def my-loops (p : refl star = refl star) : refl star = refl star := p * p\n"
        "#assert defeq concat (refl star) (refl star) ~ refl star : star = star\n",
    )
    code, out = run_cli(["check", "--open-corpus", path])
    assert code == 0
    assert "1 assertion(s) passed" in out


def test_check_json_schema(tmp_hpt):
    path = tmp_hpt("bad.hpt", "def f : missing := missing\n")
    code, out = run_cli(["check", "--json", path])
    assert code == 1
    data = json.loads(out)
    assert set(data) == {
        "files",
        "declarations_checked",
        "assertions_passed",
        "assertions_failed",
        "diagnostics",
    }
    assert data["files"] == [path]
    (diag,) = data["diagnostics"]
    assert set(diag) == {"severity", "file", "line", "col", "message"}
    assert diag["severity"] == "error"
    assert diag["line"] == 1


def test_failed_assertion_sets_exit_code(tmp_hpt):
    path = tmp_hpt(
        "assert.hpt",
        "axiom B : Type\naxiom x : B\naxiom y : B\n"
        "axiom p : x = y\n"
        "#assert defeq x ~ y : B\n",
    )
    code, out = run_cli(["check", path])
    assert code == 1
    assert "definitional assertion failed" in out


def test_eval_corpus_reduction():
    code, out = run_cli(
        ["eval", "--open-corpus", "-e", "EH (refl (refl star)) (refl (refl star))"]
    )
    assert code == 0
    assert out.splitlines()[0] == "value: refl (refl (refl star))"


def test_eval_type_universe():
    code, out = run_cli(["eval", "-e", "Type"])
    assert code == 0
    assert out.splitlines() == ["value: Type", "type: Type 1"]


def test_eval_non_function_error():
    code, out = run_cli(["eval", "--open-corpus", "-e", "star star"])
    assert code == 1
    assert "error" in out


def test_eval_json_failure_is_a_json_report():
    code, out = run_cli(["eval", "--json", "-e", "nope"])
    assert code == 1
    (diag,) = json.loads(out)["diagnostics"]
    assert diag["message"] == "unbound name 'nope'"


def test_eval_requires_expression():
    code, _ = run_cli(["eval"])
    assert code == 2


def test_usage_error_exit_code():
    code, _ = run_cli(["frobnicate"])
    assert code == 2


@pytest.mark.parametrize("budget, code", [("-1", 2), ("ten", 2), ("0", 0)])
def test_step_budget_must_be_non_negative(tmp_hpt, budget, code):
    path = tmp_hpt("ok.hpt", "axiom B : Type\n")
    assert run_cli(["check", "--step-budget", budget, path])[0] == code


def test_step_budget_is_per_declaration(tmp_hpt):
    """Files that pass alone at a budget pass together: no declaration's
    steps are charged to a later one."""
    base = tmp_hpt("base.hpt", "axiom A : Type\naxiom star : A\ndef id (x : A) : A := x\n")
    one = tmp_hpt("one.hpt", "#eval id (id (id star))\n")
    two = tmp_hpt("two.hpt", "#eval id (id (id star))\n")
    for files in ([base, one], [base, two], [base, one, two]):
        code, out = run_cli(["check", "--step-budget", "7", *files])
        assert code == 0, out


def test_step_budget_stops_a_runaway_declaration(tmp_hpt):
    # d12 star unfolds into 2**12 applications of d0.
    defs = "".join(f"def d{k} (x : A) : A := d{k - 1} (d{k - 1} x)\n" for k in range(1, 13))
    path = tmp_hpt(
        "runaway.hpt",
        "axiom A : Type\naxiom star : A\ndef d0 (x : A) : A := x\n" + defs + "#eval d12 star\n",
    )
    code, out = run_cli(["check", "--step-budget", "1000", path])
    assert code == 1
    assert f"{path}:16:1: error: evaluation step budget exhausted" in out
    assert "15 declaration(s)" in out
    assert run_cli(["check", path])[0] == 0


def test_corpus_command_passes():
    code, out = run_cli(["corpus"])
    assert code == 0
    assert "ok   §4 Theorem (Syllepsis)  [theorem] syllepsis" in out
    assert "0 failed" in out


def test_corpus_command_deterministic():
    code1, out1 = run_cli(["corpus"])
    code2, out2 = run_cli(["corpus"])
    assert (code1, out1) == (code2, out2)


def test_corpus_json_agrees_with_counts():
    code, out = run_cli(["corpus", "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["assertions_failed"] == 0
    man_count = data["declarations_checked"]
    code2, human = run_cli(["corpus"])
    assert f"{man_count} declaration(s)" in human


def copy_corpus(tmp_path, monkeypatch):
    """Point HPT_CORPUS_DIR at a copy of the bundled corpus in tmp_path."""
    from hpt import corpus as corpus_mod

    src = corpus_mod.corpus_dir()
    for p in [*src.glob("*.hpt"), src / "manifest.tsv"]:
        (tmp_path / p.name).write_text(p.read_text())
    monkeypatch.setenv("HPT_CORPUS_DIR", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize(
    "manifest, expected",
    [
        (None, "manifest.tsv:1:1: error: cannot read manifest"),
        ("# comment\nA\taxiom\n", "manifest.tsv:2:1: error: expected name, kind and anchor"),
        ("A\taxiom\tbase\nstar\tgizmo\tbase\n",
         "manifest.tsv:2:1: error: unknown kind 'gizmo' for 'star'"),
    ],
    ids=["missing", "short-row", "unknown-kind"],
)
def test_corpus_manifest_fault_is_located(tmp_path, monkeypatch, manifest, expected):
    path = copy_corpus(tmp_path, monkeypatch) / "manifest.tsv"
    path.unlink()
    if manifest is not None:
        path.write_text(manifest)
    code, out = run_cli(["corpus"])
    assert code == 1
    assert expected in out


def test_open_corpus_failure_shows_source_line(tmp_path, monkeypatch, tmp_hpt):
    (tmp_path / "corpus").mkdir()
    whisker = copy_corpus(tmp_path / "corpus", monkeypatch) / "02-whisker.hpt"
    bad = "#assert defeq whisk-L (refl star) (refl (refl star)) ~ refl (refl (refl star))"
    text = whisker.read_text().replace(
        "#assert defeq whisk-L (refl star) (refl (refl star)) ~ refl (refl star)", bad
    )
    whisker.write_text(text)
    line = text.splitlines().index(bad) + 1
    user = tmp_hpt("use.hpt", "axiom B : Type\n")
    for args in (["check", "--open-corpus", user], ["eval", "--open-corpus", "-e", "star"]):
        code, out = run_cli(args)
        assert code == 1
        assert f"02-whisker.hpt:{line}:56: error: type mismatch" in out
        assert f"    {bad}\n" in out
        assert "\n    " + " " * 55 + "^~~~" in out


def test_check_undecodable_file_is_io_diagnostic(tmp_path):
    path = tmp_path / "bytes.hpt"
    path.write_bytes(b"\xff\xfe")
    code, out = run_cli(["check", str(path)])
    assert code == 1
    assert f"{path}:1:1: error: cannot read file" in out


@pytest.mark.parametrize("args", [["corpus"], ["check", "--open-corpus"]])
def test_undecodable_corpus_file_is_io_diagnostic(tmp_path, monkeypatch, args):
    (copy_corpus(tmp_path, monkeypatch) / "08-bytes.hpt").write_bytes(b"\xff\xfe")
    code, out = run_cli(args)
    assert code == 1
    assert "08-bytes.hpt:1:1: error: cannot read file" in out


def test_corpus_missing_file_names_missing_global(tmp_path, monkeypatch):
    (copy_corpus(tmp_path, monkeypatch) / "02-whisker.hpt").unlink()
    code, out = run_cli(["corpus"])
    assert code == 1
    assert "whisk-L" in out or "whisk-R" in out  # names the missing global


def test_check_missing_file_is_io_diagnostic():
    code, out = run_cli(["check", "/nonexistent/nope.hpt"])
    assert code == 1
    assert "cannot read file" in out


def test_check_corpus_files_directly():
    import re

    from hpt import corpus as corpus_mod

    files = [str(corpus_mod.corpus_dir() / fn) for fn, _ in corpus_mod.prelude_sources()]
    code, out = run_cli(["check", *files])
    assert code == 0
    m = re.search(r"(\d+) declaration\(s\)", out)
    assert m and int(m.group(1)) >= 25
    assert "0 failed" in out


def test_check_prints_eval_directives(tmp_hpt):
    path = tmp_hpt("ev.hpt", "axiom B : Type\naxiom b : B\n#eval refl b\n#check b\n")
    code, out = run_cli(["check", path])
    assert code == 0
    assert f"{path}:3: refl b : b = b" in out
    assert f"{path}:4: b : B" in out
