"""Command-line interface: exit codes, reports, determinism."""

import gc
import io
import json
import os
import re

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
    code, out = run_cli(["eval", "--json", "-e", "Type"])
    assert code == 0
    assert out.splitlines() == ['{"value": "Type", "type": "Type 1"}']


def test_eval_non_function_error():
    code, out = run_cli(["eval", "--open-corpus", "-e", "star star"])
    assert code == 1
    assert "error" in out


def test_eval_json_failure_is_a_json_report():
    code, out = run_cli(["eval", "--json", "-e", "nope"])
    assert code == 1
    (diag,) = json.loads(out)["diagnostics"]
    assert diag["message"] == "unbound name 'nope'"


@pytest.mark.parametrize("budget, code, first", [
    ("1", 1, "<expr>:1:1: error: evaluation step budget exhausted"),
    ("2", 0, "value: Type"),
])
def test_eval_is_charged_against_the_step_budget(budget, code, first):
    """Normalizing `(fun (X : Type 1) => X) Type` takes two steps."""
    args = ["eval", "--step-budget", budget, "-e", "(fun (X : Type 1) => X) Type"]
    result, out = run_cli(args)
    assert (result, out.splitlines()[0]) == (code, first)


def test_eval_budget_failure_is_a_json_report():
    args = ["eval", "--json", "--step-budget", "1", "-e", "(fun (X : Type 1) => X) Type"]
    code, out = run_cli(args)
    assert code == 1
    (diag,) = json.loads(out)["diagnostics"]
    assert (diag["file"], diag["line"], diag["col"]) == ("<expr>", 1, 1)
    assert diag["message"] == "evaluation step budget exhausted"


def test_eval_places_a_kernel_error_where_the_expression_starts():
    args = ["eval", "--step-budget", "1", "-e", "   (fun (X : Type 1) => X) Type"]
    code, out = run_cli(args)
    assert code == 1
    assert out.splitlines()[:3] == [
        "<expr>:1:4: error: evaluation step budget exhausted",
        "       (fun (X : Type 1) => X) Type",
        "       ^",
    ]


def test_eval_requires_expression():
    code, _ = run_cli(["eval"])
    assert code == 2


def test_usage_error_exit_code():
    code, _ = run_cli(["frobnicate"])
    assert code == 2


def test_corpus_takes_no_open_corpus_flag():
    # the corpus is what `hpt corpus` checks, so there is nothing to preload
    assert run_cli(["corpus", "--open-corpus"])[0] == 2


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


def test_missing_manifest_entry_is_located_at_its_row(tmp_path, monkeypatch):
    path = copy_corpus(tmp_path, monkeypatch) / "manifest.tsv"
    rows = path.read_text().splitlines() + ["no-such-decl\tlemma\tSec 9\tmissing"]
    path.write_text("\n".join(rows) + "\n")
    code, out = run_cli(["corpus"])
    assert code == 1
    message = "error: manifest entry 'no-such-decl' not present after corpus load"
    assert f"manifest.tsv:{len(rows)}:1: {message}" in out


def test_kernel_error_in_a_pinned_assertion_is_located_at_its_line(monkeypatch):
    """`concat`'s implicit carrier is solved by the universe `Type`, which
    the kernel rejects (ROADMAP item 5); the error names the assertion."""
    from hpt import corpus as corpus_mod

    pinned = corpus_mod.required_assertions()[:2]
    bad = ("concat (refl A) (refl A)", "refl A", "A = A")
    monkeypatch.setattr(corpus_mod, "required_assertions", lambda: [*pinned, bad])
    code, out = run_cli(["corpus"])
    assert code == 1
    assert "\n<assertions>:3:1: error: at assert/lhs/arg0: type mismatch\n" in out


def test_caret_sits_under_the_error_on_a_tab_indented_line(tmp_hpt):
    path = tmp_hpt("tab.hpt", "axiom A : Type\n\tdef f : missing := missing\n")
    code, out = run_cli(["check", path])
    assert code == 1
    assert f"{path}:2:10: error:" in out
    assert "\n    \tdef f : missing := missing\n    \t        ^~~~~~~\n" in out


def test_underline_keeps_a_tab_inside_the_span(tmp_hpt):
    # The lambda's span (2:14) covers a tab; the underline keeps it, so it
    # ends under `x` whatever the terminal's tab stops.
    path = tmp_hpt("tab.hpt", "axiom A : Type\ndef f : A := fun (x : A)\t=> x\n")
    code, out = run_cli(["check", path])
    assert code == 1
    assert f"{path}:2:14: error:" in out
    assert "\n    " + " " * 13 + "^" + "~" * 10 + "\t" + "~" * 4 + "\n" in out


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


def test_open_corpus_reports_a_failed_corpus_assertion(tmp_path, monkeypatch, tmp_hpt):
    """A corpus whose own `#assert defeq` fails is not preloaded in silence:
    the failure is reported at its line and the command exits 1."""
    (tmp_path / "corpus").mkdir()
    syllepsis = copy_corpus(tmp_path / "corpus", monkeypatch) / "07-syllepsis.hpt"
    bad = "#assert defeq loop0 ~ refl (refl star) : refl star = refl star"
    text = syllepsis.read_text() + f"axiom loop0 : refl star = refl star\n{bad}\n"
    syllepsis.write_text(text)
    line = text.splitlines().index(bad) + 1
    user = tmp_hpt("use.hpt", "axiom B : Type\n")
    for args in (["check", "--open-corpus", user], ["eval", "--open-corpus", "-e", "star"]):
        code, out = run_cli(args)
        assert code == 1
        assert f"07-syllepsis.hpt:{line}:1: error: definitional assertion failed" in out
        assert f"    {bad}\n" in out


def test_check_drops_a_byte_order_mark(tmp_path):
    """A leading UTF-8 byte-order mark is not source text: it neither fails
    the lexer nor shifts the column of a later error on line 1."""
    good, bad = tmp_path / "bom.hpt", tmp_path / "bad.hpt"
    good.write_bytes(b"\xef\xbb\xbfaxiom A : Type\n")
    bad.write_bytes(b"\xef\xbb\xbfdef f : missing := missing\n")
    code, out = run_cli(["check", str(good)])
    assert code == 0
    assert "checked 1 file(s): 1 declaration(s), " in out
    code, out = run_cli(["check", str(bad)])
    assert code == 1
    assert out.startswith(f"{bad}:1:9: error: unbound name")


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


def test_closed_stdout_ends_quietly(tmp_hpt):
    """`hpt check bad.hpt | head -1`: the reader is gone before the child
    writes, which must give exit 1 and no traceback, not even at shutdown."""
    import subprocess
    import sys
    from pathlib import Path

    bad = tmp_hpt("bad.hpt", "def f : missing := missing\n")
    src = Path(__file__).resolve().parent.parent / "src"
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hpt.cli", "check", bad, bad], stdout=write,
            stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=str(src)), timeout=120,
        )
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


class _ClosedStdout:
    """An in-process stdout whose reader has left: `flush` raises, as a pipe
    closed early does; `fileno` is a file the test owns, for `main` to point
    at devnull."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        return len(text)

    def flush(self):
        raise BrokenPipeError

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("args, code, closed", [
    (["corpus"], 0, False),
    (["check", "bad.hpt"], 1, False),
    (["check", "--no-such-flag"], 2, False),
    (["check", "bad.hpt"], 1, True),
], ids=["corpus", "check-error", "usage-error", "closed-stdout"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, args, code, closed):
    """`main` collects rarely while a command runs and hands an in-process
    caller back its own thresholds, however the command ends."""
    (tmp_path / "bad.hpt").write_text("def f : missing := missing\n")
    monkeypatch.chdir(tmp_path)
    saved, enabled = gc.get_threshold(), gc.isenabled()
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    gc.set_threshold(1234, 5, 6)
    try:
        out = _ClosedStdout(fd) if closed else io.StringIO()
        assert main(args, out=out) == code
        assert (gc.get_threshold(), gc.isenabled()) == ((1234, 5, 6), enabled)
    finally:
        gc.set_threshold(*saved)
        os.close(fd)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd to count")
def test_a_closed_stdout_leaks_no_file_descriptor(tmp_path, monkeypatch):
    """`main` opens devnull to stand in for a closed stdout, and closes it."""
    (tmp_path / "bad.hpt").write_text("def f : missing := missing\n")
    monkeypatch.chdir(tmp_path)
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(5):
            assert main(["check", "bad.hpt"], out=_ClosedStdout(fd)) == 1
        assert len(os.listdir("/proc/self/fd")) == before
    finally:
        os.close(fd)


@pytest.mark.parametrize("failed, succeeded", [
    (["check", "nonexist.hpt"], ["check", "good.hpt"]),
    (["eval", "-e", "missing"], ["eval", "-e", "Type"]),
    (["eval", "--step-budget", "1", "-e", "(fun (X : Type 1) => X) Type"], ["eval", "-e", "Type"]),
], ids=["unreadable-file", "unbound-name", "step-budget"])
def test_a_failed_command_leaves_no_more_cyclic_garbage_than_a_successful_one(
        tmp_path, monkeypatch, failed, succeeded):
    """With the collector off, a failed command leaves no more for
    `gc.collect()` than a successful one (argparse's own cycles): the error
    it reports is stored without the traceback whose frames hold the report."""
    (tmp_path / "good.hpt").write_text("axiom A : Type\n")
    monkeypatch.chdir(tmp_path)

    def garbage(args, code):
        gc.collect()
        assert main(args, out=io.StringIO()) == code
        return gc.collect()

    enabled = gc.isenabled()
    gc.disable()
    try:
        assert garbage(failed, 1) <= garbage(succeeded, 0)
    finally:
        if enabled:
            gc.enable()


_LAYERS_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import layers, run

hpt = run.import_hpt()
layers.Spans(run.Recorder()).install(hpt)
counts = layers.Counts()
counts.install(hpt)
text = "axiom A : Type\\naxiom star : A\\n#eval refl star\\n"
_, result = hpt.driver.check_source(hpt.kernel.GlobalEnv(), text, "t.hpt")
assert result.error is None, result.error
assert counts.counts["kernel.eval_calls"] > 0
"""


def test_benchmark_wrappers_find_every_name_they_wrap():
    """`benchmarks/layers.py` wraps hpt functions by name; a renamed one fails
    here with an AttributeError. Runs in a child process, so the wrappers stay
    out of this session."""
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", _LAYERS_CHILD, str(root / "benchmarks")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


# Inputs that once ended in a Python traceback, are lex and parse errors, or
# elaborate to a core the kernel rejects: each must give exit 1 and a located
# first line.
NO_TRACEBACK_INPUTS = {
    "superscript-level": "axiom A : Type \u00b2\n",
    "arabic-indic-level": "axiom A : Type \u0663\n",
    "5000-digit-level": "axiom A : Type " + "1" * 5000 + "\n",
    "4300-nines-level": "#check Type " + "9" * 4300 + "\n",
    "unknown-directive": "#foo\n",
    "missing-type": "def f : := x\n",
    "unclosed-binder": "def f (x : A := x\n",
    "lone-dash": "a - b\n",
    "illegal-character": "\u27e6\n",
    "20000-nested-parentheses": "#check " + "(" * 20_000 + "A" + ")" * 20_000 + "\n",
    "20000-arrow-def-type": "def f : " + "A -> " * 20_000 + "A := f\n",
    "implicit-solved-by-a-universe": "axiom A : Type\ndef id {X : Type} (x : X) : X := x\n"
    "#assert defeq A ~ id A : Type\n",
    "fun-without-binders": "#check fun => A\n",
    "normal-form-131072-applications-deep": "axiom A : Type\naxiom f : A -> A\n"
    "def g0 (x : A) : A := f x\n"
    + "".join(f"def g{k} (x : A) : A := g{k - 1} (g{k - 1} x)\n" for k in range(1, 18))
    + "#eval fun (x : A) => g17 x\n",
}


@pytest.mark.parametrize("text", NO_TRACEBACK_INPUTS.values(), ids=NO_TRACEBACK_INPUTS.keys())
def test_bad_input_gets_a_located_error(tmp_path, text):
    path = tmp_path / "bad.hpt"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli(["check", str(path)])
    assert code == 1
    assert re.match(re.escape(str(path)) + r":\d+:\d+: error: ", out.splitlines()[0])


# `t` applied 17 times to `f`, where `t h = h ∘ h`: a normal form 131,072
# applications deep, past the recursion limit of readback.
DEEP_EVAL_INPUT = (
    "fun (A : Type) (f : A -> A) (x : A) => (fun (t : (A -> A) -> A -> A) => "
    + "t (" * 16 + "t f" + ")" * 16
    + " x) (fun (h : A -> A) (y : A) => h (h y))"
)


@pytest.mark.parametrize("flags", [[], ["--open-corpus"]], ids=["alone", "open-corpus"])
def test_eval_of_a_too_deep_normal_form_gets_a_located_error(flags):
    code, out = run_cli(["eval", *flags, "-e", DEEP_EVAL_INPUT])
    assert code == 1
    assert out.splitlines()[0] == "<expr>:1:1: error: term nested too deeply"


def _benchmark_reach():
    """The hpt modules `benchmarks/run.py` imports, and the (module, attribute)
    pairs that it and `benchmarks/layers.py` reach: the SPAN_POINTS entries,
    the `replace` calls with literal names, and every `hpt.<module>.<attr>`."""
    import ast
    from pathlib import Path

    bench = Path(__file__).resolve().parent.parent / "benchmarks"
    trees = [ast.parse((bench / name).read_text()) for name in ("layers.py", "run.py")]
    nodes = [n for tree in trees for n in ast.walk(tree)]
    import_hpt = next(n for n in nodes if isinstance(n, ast.FunctionDef) and n.name == "import_hpt")

    def assigned(name, among):
        return next(ast.literal_eval(n.value) for n in among if isinstance(n, ast.Assign)
                    and getattr(n.targets[0], "id", None) == name)

    imported = assigned("names", ast.walk(import_hpt))
    span_points = assigned("SPAN_POINTS", nodes)
    replaced = [
        (n.args[1].value, n.args[2].value) for n in nodes
        if isinstance(n, ast.Call) and len(n.args) >= 3
        and (isinstance(n.func, ast.Name) and n.func.id == "replace"
             or isinstance(n.func, ast.Attribute) and n.func.attr == "replace"
             and isinstance(n.func.value, ast.Name) and n.func.value.id == "layers")
        and all(isinstance(a, ast.Constant) for a in n.args[1:3])
    ]
    chains = [
        (n.value.attr, n.attr) for n in nodes
        if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Attribute)
        and isinstance(n.value.value, ast.Name) and n.value.value.id == "hpt"
    ]
    return imported, [p[:2] for p in span_points], replaced, chains


def test_every_hpt_name_the_benchmark_reaches_resolves():
    """A renamed or deleted function that the benchmark wraps or calls fails
    here, without a benchmark run; the benchmark's files are only read."""
    import importlib

    imported, span_points, replaced, chains = _benchmark_reach()
    assert ("driver", "process_decl") in replaced and ("kernel", "VTop.force") in replaced
    assert ("corpus", "load_corpus") in chains and len(span_points) >= 20
    for module, attr in [*span_points, *replaced, *chains]:
        assert module in imported, module
        target = importlib.import_module(f"hpt.{module}")
        for part in attr.split("."):
            target = getattr(target, part, None)
            assert target is not None, f"hpt.{module}.{attr}"
