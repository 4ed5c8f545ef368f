"""Command-line front end: check files, evaluate terms, and run the
bundled corpus with its assertion suite.

Exit codes: 0 success, 1 check/assertion failure, 2 usage error. The
environment variable HPT_CORPUS_DIR overrides the bundled corpus location.
Output is deterministic: two runs on identical input produce byte-identical
stdout (timings are kept out of the default output).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from dataclasses import dataclass, field

from . import corpus as corpus_mod
from . import driver, kernel
from .driver import FileResult
from .kernel import GlobalEnv
from .surface import SourceSpan, SurfaceError, parse_term


@dataclass
class CheckReport:
    files: list[str] = field(default_factory=list)
    declarations_checked: int = 0
    assertions_passed: int = 0
    assertions_failed: int = 0
    diagnostics: list[SurfaceError] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.assertions_failed == 0 and not self.diagnostics

    def add(self, result: FileResult) -> None:
        self.files.append(result.filename)
        self.declarations_checked += result.declarations_checked
        self.assertions_passed += result.assertions_passed
        self.assertions_failed += result.assertions_failed
        self.diagnostics += result.diagnostics

    def to_json(self) -> dict:
        return {
            "files": self.files,
            "declarations_checked": self.declarations_checked,
            "assertions_passed": self.assertions_passed,
            "assertions_failed": self.assertions_failed,
            "diagnostics": [
                {
                    "severity": "error",
                    "file": d.span.file,
                    "line": d.span.start_line,
                    "col": d.span.start_col,
                    "message": d.message,
                }
                for d in self.diagnostics
            ],
        }


def _render_diagnostic(d: SurfaceError, sources: dict[str, str], color: bool) -> str:
    sev = "\x1b[31merror\x1b[0m" if color else "error"
    first, *rest = d.message.splitlines() or [""]
    out = [f"{d.span.file}:{d.span.start_line}:{d.span.start_col}: {sev}: {first}", *rest]
    text = sources.get(d.span.file)
    if text is not None:
        lines = text.splitlines()
        if 1 <= d.span.start_line <= len(lines):
            src = lines[d.span.start_line - 1]
            out.append(f"    {src}")
            start = d.span.start_col
            end = d.span.end_col if d.span.end_line == d.span.start_line else len(src)
            # A tab stays a tab in the pad and the underline, so both keep
            # their place wherever the terminal puts its tab stops.
            pad = "".join(c if c == "\t" else " " for c in src[: start - 1])
            run = "".join(c if c == "\t" else "~" for c in src[start:end].ljust(end - start))
            out.append(f"    {pad}^{run}")
    return "\n".join(out)


def _finish(args, out, report: CheckReport, sources: dict[str, str], lines=(),
            summary: bool = True) -> int:
    """Print the JSON report, or else `lines`, the diagnostics and (with
    `summary`) the summary line. Returns the exit code."""
    if args.json:
        print(json.dumps(report.to_json(), indent=2), file=out)
    else:
        for line in lines:
            print(line, file=out)
        for d in report.diagnostics:
            print(_render_diagnostic(d, sources, args.color), file=out)
        if summary:
            print(
                f"checked {len(report.files)} file(s): "
                f"{report.declarations_checked} declaration(s), "
                f"{report.assertions_passed} assertion(s) passed, "
                f"{report.assertions_failed} failed",
                file=out,
            )
    return 0 if report.ok else 1


def _environment(args, report: CheckReport, sources: dict[str, str]) -> GlobalEnv | None:
    """The environment a command starts from: empty, or for `hpt corpus` and
    --open-corpus the checked corpus, whose sources join `sources`. `hpt
    corpus` adds every corpus result to `report`, --open-corpus only the
    diagnostics. None on a corpus error, or any diagnostic of --open-corpus."""
    if args.command != "corpus" and not args.open_corpus:
        return GlobalEnv()
    env, corpus_sources, results = corpus_mod.check_corpus()
    sources.update(corpus_sources)
    preload = CheckReport()  # under --open-corpus, only its diagnostics are kept
    for result in results:
        (report if args.command == "corpus" else preload).add(result)
    report.diagnostics += preload.diagnostics
    failed = preload.diagnostics or any(r.error is not None for r in results)
    return None if failed else env


def cmd_check(args, out) -> int:
    report, sources, lines = CheckReport(), {}, []
    env = _environment(args, report, sources)
    if env is not None:
        for path in args.files:
            try:
                sources[path] = driver.read_source(path, path)
            except SurfaceError as e:
                result = FileResult(path, error=e)
            else:
                env, result = driver.check_source(env, sources[path], path)
            report.add(result)
            lines += (f"{path}:{ev.span.start_line}: {ev.text}"
                      for ev in result.events if ev.kind in ("check", "eval"))
    return _finish(args, out, report, sources, lines)


def cmd_eval(args, out) -> int:
    report, sources = CheckReport(), {"<expr>": args.expr}
    env = _environment(args, report, sources)
    if env is not None:
        try:
            term = parse_term(args.expr, "<expr>")
            line, col = term.span.start_line, term.span.start_col  # where the expression starts
            value, ty = driver.located(lambda: driver.evaluate(env, term),
                                       SourceSpan("<expr>", line, col, line, col))
        except SurfaceError as e:
            report.diagnostics.append(e)
        else:
            if args.json:
                print(json.dumps({"value": value, "type": ty}), file=out)
            else:
                print(f"value: {value}\ntype: {ty}", file=out)
            return 0
    return _finish(args, out, report, sources, summary=False)


def cmd_corpus(args, out) -> int:
    report, sources, rows = CheckReport(), {}, []  # rows: (ok, text)
    env = _environment(args, report, sources)
    if env is not None:
        try:
            for entry in corpus_mod.manifest():
                present = entry.decl_name in env
                rows.append((present, f"{entry.paper_anchor}  [{entry.kind}] {entry.decl_name}"))
                if not present:
                    message = f"manifest entry {entry.decl_name!r} not present after corpus load"
                    span = SourceSpan("manifest.tsv", entry.line, 1, entry.line, 1)
                    report.diagnostics.append(SurfaceError(span, message))
            for label, ok in corpus_mod.run_required_assertions(env):
                rows.append((ok, f"definitional assertion  {label}"))
                report.assertions_passed += ok
                report.assertions_failed += not ok
        except SurfaceError as e:
            report.diagnostics.append(e)
    lines = (f"{'ok  ' if ok else 'FAIL'} {text}" for ok, text in rows)
    return _finish(args, out, report, sources, lines)


def _non_negative_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hpt", description="check and evaluate .hpt developments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, open_corpus=True):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--step-budget", type=_non_negative_int,
                       default=kernel.DEFAULT_STEP_BUDGET, metavar="N",
                       help="evaluation step budget per declaration")
        p.add_argument("--no-color", action="store_true", help="disable color output")
        if open_corpus:
            p.add_argument("--open-corpus", action="store_true",
                           help="preload the bundled corpus")

    p_check = sub.add_parser("check", help="check .hpt files")
    p_check.add_argument("files", nargs="*", metavar="FILE")
    common(p_check)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("-e", dest="expr", metavar="EXPR", required=True,
                        help="expression to evaluate")
    common(p_eval)

    p_corpus = sub.add_parser("corpus", help="check the bundled corpus")
    common(p_corpus, open_corpus=False)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    args.color = (not args.no_color) and hasattr(out, "isatty") and out.isatty()
    commands = {"check": cmd_check, "eval": cmd_eval, "corpus": cmd_corpus}
    thresholds = gc.get_threshold()
    gc.set_threshold(50_000, 20, 100)  # checking makes no reference cycles: collect rarely
    try:
        with kernel.step_budget(args.step_budget):
            code = commands[args.command](args, out)
        out.flush()
    except BrokenPipeError:
        # The reader left early (`hpt check … | head -1`); send the unwritten
        # rest to devnull, so that the flush at shutdown cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())
        return 1
    finally:
        gc.set_threshold(*thresholds)
    return code


if __name__ == "__main__":
    sys.exit(main())
