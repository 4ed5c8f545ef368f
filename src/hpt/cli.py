"""Command-line front end: check files, evaluate terms, and run the
bundled corpus with its assertion suite.

Exit codes: 0 success, 1 check/assertion failure, 2 usage error. The
environment variable HPT_CORPUS_DIR overrides the bundled corpus location.
Output is deterministic: two runs on identical input produce byte-identical
stdout (timings are kept out of the default output).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import corpus as corpus_mod
from . import driver, elab, kernel
from .core import pretty
from .kernel import GlobalEnv, KernelError
from .surface import SourceSpan, SurfaceError, parse_term


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning" | "info"
    span: SourceSpan
    message: str


@dataclass
class CheckReport:
    files: list[str] = field(default_factory=list)
    declarations_checked: int = 0
    assertions_passed: int = 0
    assertions_failed: int = 0
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.assertions_failed == 0 and not any(
            d.severity == "error" for d in self.diagnostics
        )

    def to_json(self) -> dict:
        return {
            "files": self.files,
            "declarations_checked": self.declarations_checked,
            "assertions_passed": self.assertions_passed,
            "assertions_failed": self.assertions_failed,
            "diagnostics": [
                {
                    "severity": d.severity,
                    "file": d.span.file,
                    "line": d.span.start_line,
                    "col": d.span.start_col,
                    "message": d.message,
                }
                for d in self.diagnostics
            ],
        }


def _render_diagnostic(d: Diagnostic, sources: dict[str, str], color: bool) -> str:
    sev = d.severity
    if color:
        colors = {"error": "\x1b[31m", "warning": "\x1b[33m", "info": "\x1b[36m"}
        sev = f"{colors.get(d.severity, '')}{d.severity}\x1b[0m"
    first_line = d.message.splitlines()[0] if d.message else ""
    rest = d.message.splitlines()[1:]
    out = [f"{d.span.file}:{d.span.start_line}:{d.span.start_col}: {sev}: {first_line}"]
    out.extend(rest)
    text = sources.get(d.span.file)
    if text is not None:
        lines = text.splitlines()
        if 1 <= d.span.start_line <= len(lines):
            src = lines[d.span.start_line - 1]
            out.append(f"    {src}")
            start = d.span.start_col
            end = d.span.end_col if d.span.end_line == d.span.start_line else len(src)
            width = max(1, end - start + 1)
            out.append("    " + " " * (start - 1) + "^" + "~" * (width - 1))
    return "\n".join(out)


def _error_to_diagnostic(err: Exception, fallback_span: SourceSpan) -> Diagnostic:
    if isinstance(err, SurfaceError):
        return Diagnostic("error", err.span, err.message)
    return Diagnostic("error", fallback_span, str(err))


def _collect_file_result(report: CheckReport, result: driver.FileResult) -> None:
    report.files.append(result.filename)
    report.declarations_checked += result.declarations_checked
    report.assertions_passed += result.assertions_passed
    report.assertions_failed += result.assertions_failed
    for event in result.events:
        if event.kind == "assert" and not event.ok:
            report.diagnostics.append(
                Diagnostic("error", event.span, f"definitional assertion failed: {event.text}")
            )
    if result.error is not None:
        report.diagnostics.append(_error_to_diagnostic(result.error, result.error_span))


def _print_report(report: CheckReport, sources: dict[str, str], out, color: bool) -> None:
    for d in report.diagnostics:
        print(_render_diagnostic(d, sources, color), file=out)
    print(
        f"checked {len(report.files)} file(s): "
        f"{report.declarations_checked} declaration(s), "
        f"{report.assertions_passed} assertion(s) passed, "
        f"{report.assertions_failed} failed",
        file=out,
    )


def _open_corpus(report: CheckReport, sources: dict[str, str]) -> GlobalEnv | None:
    """The corpus environment for --open-corpus, or None with the corpus's
    error in `report`. The corpus sources join `sources` for rendering."""
    env, corpus_sources, results = corpus_mod.check_corpus(GlobalEnv())
    sources.update(corpus_sources)
    if results and results[-1].error is not None:
        report.diagnostics.append(_error_to_diagnostic(results[-1].error, results[-1].error_span))
        return None
    return env


def cmd_check(args, out) -> int:
    report = CheckReport()
    sources: dict[str, str] = {}
    env = _open_corpus(report, sources) if args.open_corpus else GlobalEnv()
    if env is not None:
        for path in args.files:
            try:
                text = driver.read_source(path, path)
            except SurfaceError as e:
                report.files.append(path)
                report.diagnostics.append(_error_to_diagnostic(e, e.span))
                continue
            sources[path] = text
            env, result = driver.check_source(env, text, path)
            _collect_file_result(report, result)
            if not args.json:
                for event in result.events:
                    if event.kind in ("check", "eval"):
                        print(f"{path}:{event.span.start_line}: {event.text}", file=out)
    if args.json:
        print(json.dumps(report.to_json(), indent=2), file=out)
    else:
        _print_report(report, sources, out, args.color)
    return 0 if report.ok else 1


def cmd_eval(args, out) -> int:
    report = CheckReport()
    if args.expr is None:
        print("error: eval requires -e <expr>", file=sys.stderr)
        return 2
    sources = {"<expr>": args.expr}
    env = _open_corpus(report, sources) if args.open_corpus else GlobalEnv()
    if env is not None:
        try:
            term = parse_term(args.expr, "<expr>")
            core, ty = elab.elaborate_term(env, term)
            nf = kernel.normalize(env, core)
            if args.json:
                print(json.dumps({"value": pretty(nf), "type": pretty(ty)}), file=out)
            else:
                print(f"value: {pretty(nf)}", file=out)
                print(f"type: {pretty(ty)}", file=out)
            return 0
        except (SurfaceError, KernelError) as e:
            report.diagnostics.append(_error_to_diagnostic(e, SourceSpan("<expr>", 1, 1, 1, 1)))
    if args.json:
        print(json.dumps(report.to_json(), indent=2), file=out)
    else:
        for d in report.diagnostics:
            print(_render_diagnostic(d, sources, args.color), file=out)
    return 1


def cmd_corpus(args, out) -> int:
    report = CheckReport()
    env, sources, results = corpus_mod.check_corpus(GlobalEnv())
    for result in results:
        _collect_file_result(report, result)

    lines: list[str] = []
    if not any(r.error is not None for r in results):
        try:
            for entry in corpus_mod.manifest():
                present = entry.decl_name in env
                mark = "ok  " if present else "FAIL"
                lines.append(f"{mark} {entry.paper_anchor}  [{entry.kind}] {entry.decl_name}")
                if not present:
                    message = f"manifest entry {entry.decl_name!r} not present after corpus load"
                    report.diagnostics.append(
                        Diagnostic("error", SourceSpan("manifest.tsv", 1, 1, 1, 1), message)
                    )
            for label, ok in corpus_mod.run_required_assertions(env):
                mark = "ok  " if ok else "FAIL"
                lines.append(f"{mark} definitional assertion  {label}")
                if ok:
                    report.assertions_passed += 1
                else:
                    report.assertions_failed += 1
        except (SurfaceError, KernelError) as e:
            report.diagnostics.append(
                _error_to_diagnostic(e, SourceSpan("<assertions>", 1, 1, 1, 1))
            )

    if args.json:
        print(json.dumps(report.to_json(), indent=2), file=out)
    else:
        for line in lines:
            print(line, file=out)
        _print_report(report, sources, out, args.color)
    return 0 if report.ok else 1


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

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--step-budget", type=_non_negative_int,
                       default=kernel.DEFAULT_STEP_BUDGET, metavar="N",
                       help="evaluation step budget per declaration")
        p.add_argument("--no-color", action="store_true", help="disable color output")
        p.add_argument("--open-corpus", action="store_true",
                       help="preload the bundled corpus")

    p_check = sub.add_parser("check", help="check .hpt files")
    p_check.add_argument("files", nargs="*", metavar="FILE")
    common(p_check)

    p_eval = sub.add_parser("eval", help="evaluate an expression")
    p_eval.add_argument("-e", dest="expr", metavar="EXPR", help="expression to evaluate")
    common(p_eval)

    p_corpus = sub.add_parser("corpus", help="check the bundled corpus")
    common(p_corpus)

    return parser


def main(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    args.color = (not args.no_color) and hasattr(out, "isatty") and out.isatty()
    with kernel.step_budget(args.step_budget):
        if args.command == "check":
            return cmd_check(args, out)
        if args.command == "eval":
            return cmd_eval(args, out)
        if args.command == "corpus":
            return cmd_corpus(args, out)
    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
