"""The `hpt` transcript: stdout and exit code of each invocation in
`INVOCATIONS`, pinned in `cli_transcript.txt`.

Files are written to a temporary directory, named `<tmp>` in the transcript.
`hpt corpus` is pinned by `benchmarks/expected/corpus.txt`, which this test
reads and never writes. To see the transcript of the code as it stands:

    PYTHONPATH=src python -m tests.test_transcript
"""

import io
import sys
import tempfile
from pathlib import Path

from hpt.cli import main

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).with_name("cli_transcript.txt")
CORPUS_TXT = ROOT / "benchmarks" / "expected" / "corpus.txt"

# d12 star unfolds into 2**12 applications of d0.
RUNAWAY = (
    "axiom A : Type\naxiom star : A\ndef d0 (x : A) : A := x\n"
    + "".join(f"def d{k} (x : A) : A := d{k - 1} (d{k - 1} x)\n" for k in range(1, 13))
    + "#eval d12 star\n"
)

FILES = {
    "show.hpt": "axiom B : Type\naxiom b : B\n#eval refl b\n#check b\n#check fun (x : B) => x\n",
    "unbound.hpt": "axiom B : Type\ndef f : missing := missing\naxiom c : B\n",
    "assert.hpt": "axiom B : Type\naxiom x : B\naxiom y : B\n#assert defeq x ~ y : B\n"
    "#assert defeq x ~ x : B\naxiom z : B\n",
    "implicit.hpt": "axiom A : Type\ndef id {X : Type} (x : X) : X := x\n"
    "#assert defeq A ~ id A : Type\n",
    "runaway.hpt": RUNAWAY,
    "good.hpt": "axiom G : Type\naxiom g : G\n",
    "use.hpt": "def my-loops (p : refl star = refl star) : refl star = refl star := p * p\n"
    "#assert defeq concat (refl star) (refl star) ~ refl star : star = star\n"
    "#eval my-loops (refl (refl star))\n",
    "use-bad.hpt": "#check whisk-L (refl star)\n#check nope\n",
}
UNDECODABLE = b"\xff\xfe"

INVOCATIONS = [
    ["corpus"],
    ["corpus", "--json"],
    ["check", "show.hpt"],
    ["check", "--json", "show.hpt"],
    ["check", "unbound.hpt"],
    ["check", "--json", "unbound.hpt"],
    ["check", "assert.hpt"],
    ["check", "implicit.hpt"],
    ["check", "--step-budget", "1000", "runaway.hpt"],
    ["check", "unbound.hpt", "good.hpt", "missing.hpt", "bytes.hpt", "show.hpt"],
    ["check", "--json", "unbound.hpt", "good.hpt", "missing.hpt", "bytes.hpt"],
    ["check", "--open-corpus", "use.hpt"],
    ["check", "--open-corpus", "--json", "use.hpt"],
    ["check", "--open-corpus", "use-bad.hpt"],
    ["eval", "-e", "Type"],
    ["eval", "--json", "-e", "Type"],
    ["eval", "--open-corpus", "-e", "EH (refl (refl star)) (refl (refl star))"],
    ["eval", "-e", "nope"],
    ["eval", "--json", "-e", "nope"],
    ["eval", "--open-corpus", "-e", "star star"],
    ["eval", "-e", "fun (x : Type) =>"],
    ["eval", "--json", "-e", "(Type"],
    ["eval", "--step-budget", "1", "-e", "(fun (X : Type 1) => X) Type"],
    ["check"],
    ["check", "--json"],
    ["eval"],
    ["frobnicate"],
    ["corpus", "--open-corpus"],
    ["check", "--step-budget", "-1", "good.hpt"],
]


def transcript(tmp: Path) -> str:
    """Every invocation's command line, exit code and stdout, with `tmp`
    written as `<tmp>`; `hpt corpus` stdout equal to CORPUS_TXT is written
    as a reference to that file."""
    for name, text in FILES.items():
        (tmp / name).write_text(text, encoding="utf-8")
    (tmp / "bytes.hpt").write_bytes(UNDECODABLE)
    corpus_txt = CORPUS_TXT.read_text(encoding="utf-8")
    blocks = []
    for argv in INVOCATIONS:
        args = [str(tmp / a) if a.endswith(".hpt") else a for a in argv]
        out = io.StringIO()
        code = main(args, out=out)
        stdout = out.getvalue()
        if argv == ["corpus"] and stdout == corpus_txt:
            stdout = f"<{CORPUS_TXT.relative_to(ROOT)}>\n"
        blocks.append(f"$ hpt {' '.join(argv)}\n[exit {code}]\n{stdout}")
    return "\n".join(blocks).replace(str(tmp), "<tmp>")


def test_cli_transcript(tmp_path):
    assert transcript(tmp_path) == EXPECTED.read_text(encoding="utf-8")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(transcript(Path(tmp)))
