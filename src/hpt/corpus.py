"""The bundled `.hpt` corpus and its machine-readable manifest.

The corpus is a dependency-ordered sequence of sources (numeric filename
prefixes fix the order) that parse, elaborate, and kernel-check with zero
errors, together with a manifest cross-indexing every declaration to its
anchor in the written development and a pinned list of definitional
assertions that must hold. Both the sources and the pinned assertions are
checked through `driver`: the sources with `driver.check_sources`, the
assertions as `#assert defeq` directives of one more source.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

from . import driver
from .driver import FileResult
from .kernel import GlobalEnv
from .surface import SourceSpan, SurfaceError

_BUNDLED = Path(__file__).resolve().parent / "corpus"

KINDS = ("axiom", "definition", "lemma", "theorem", "assertion")


@dataclass(frozen=True)
class CorpusEntry:
    decl_name: str
    paper_anchor: str
    kind: str
    line: int  # the row of manifest.tsv it was read from


def corpus_dir() -> Path:
    return Path(os.environ.get("HPT_CORPUS_DIR") or _BUNDLED)


def prelude_sources() -> list[tuple[str, str]]:
    """The corpus sources in dependency order as (filename, text) pairs; an
    unreadable file raises a SurfaceError located at that file."""
    return [(p.name, driver.read_source(p, p.name)) for p in sorted(corpus_dir().glob("*.hpt"))]


def check_corpus() -> tuple[GlobalEnv, dict[str, str], list[FileResult]]:
    """Read and check the corpus; an unreadable file is a FileResult's error."""
    try:
        sources = dict(prelude_sources())
    except SurfaceError as e:
        return GlobalEnv(), {}, [FileResult(e.span.file, error=e)]
    env, results = driver.check_sources(GlobalEnv(), sources.items())
    return env, sources, results


def manifest() -> list[CorpusEntry]:
    """Parse the shipped manifest table (name, kind, anchor; then a summary for readers).

    A missing file, a row of fewer than three tab-separated columns or an
    unknown kind raises a SurfaceError located in manifest.tsv.
    """

    def error(line: int, message: str) -> SurfaceError:
        return SurfaceError(SourceSpan("manifest.tsv", line, 1, line, 1), message)

    text = driver.read_source(corpus_dir() / "manifest.tsv", "manifest.tsv", "manifest")
    entries = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) < 3:
            raise error(lineno, f"expected name, kind and anchor, found {len(parts)} column(s)")
        name, kind, anchor = parts[:3]
        if kind not in KINDS:
            raise error(lineno, f"unknown kind {kind!r} for {name!r}")
        entries.append(CorpusEntry(name, anchor, kind, lineno))
    return entries


def required_assertions() -> list[tuple[str, str, str]]:
    """Definitional equalities the corpus must satisfy, as
    (lhs, rhs, type) surface-syntax triples."""
    two = "(refl (refl star))"
    three = "refl (refl (refl star))"
    four = f"refl ({three})"
    return [
        ("concat (refl star) (refl star)", "refl star", "star = star"),
        ("concat-1-L (refl star)", "refl (refl star)",
         "refl star * refl star = refl star"),
        ("concat-1-R (refl star)", "refl (refl star)",
         "refl star * refl star = refl star"),
        ("whisk-L (refl star) (refl (refl star))", "refl (refl star)",
         "refl star * refl star = refl star * refl star"),
        ("whisk-R (refl (refl star)) (refl star)", "refl (refl star)",
         "refl star * refl star = refl star * refl star"),
        (f"EH {two} {two}", three, "refl (refl star) = refl (refl star)"),
        (f"EH-1-L {two}", four,
         f"EH {two} {two} = concat-1-L {two} * inv (concat-1-R {two})"),
        (f"EH-1-R {two}", four,
         f"EH {two} {two} = concat-1-R {two} * inv (concat-1-L {two})"),
    ]


def load_corpus() -> tuple[GlobalEnv, list[FileResult]]:
    """Check the whole corpus in order. Raises the first diagnostic that
    `hpt corpus` prints, a failed assertion or an error, located."""
    env, _, results = check_corpus()
    for result in results:
        if diagnostics := result.diagnostics:
            raise diagnostics[0]
    return env, results


def run_required_assertions(env: GlobalEnv) -> list[tuple[str, bool]]:
    """Check every pinned assertion against a loaded corpus environment, as
    the `#assert defeq` directives of one source named <assertions>.
    Raises the source's error, if it has one, located at its line."""
    pinned = required_assertions()
    text = "".join(f"#assert defeq {lhs} ~ {rhs} : {ty}\n" for lhs, rhs, ty in pinned)
    _, result = driver.check_source(env, text, "<assertions>")
    if result.error is not None:
        raise result.error
    return [(f"{lhs} ~ {rhs}", e.ok) for (lhs, rhs, _), e in zip(pinned, result.events)]
