"""List the package statements that the same-outputs command lines never run.

Run from the root of a checkout:

    python3 tools/reach.py

It line-traces, in one process, the command lines of
``tools/same_outputs.py`` (``command_lines``, counted in its docstring)
through ``delpezzo.cli.main``, with the working tree's ``src/`` first on
the path.  Tracing starts before ``delpezzo`` is imported, so
module-level statements count as run; it also sees the draws of the corpus sample (``write_inputs``), which run
the code that the ``corpus`` command lines run.  It then
prints, per file, each statement of ``src/delpezzo`` that produces code and
never ran, as ``path:line: first source line``, and a summary line.  A
statement counts as run if any line of it ran; for a compound statement
(``if``, ``for``, ``def``, ...) only its header counts, not its body.
Docstrings and other statements that compile to no line of code are left
out.  The exit status is 0.  Only the standard library is used; a run takes
10-17 s on a 2-core Xeon, and lists 172 statements.
"""
from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

import same_outputs

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "delpezzo"


def code_lines(code) -> set[int]:
    """Every line that the code object, or one nested in it, runs."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= code_lines(const)
    return lines


def own_lines(node: ast.stmt) -> range:
    """The lines of a statement, or of a compound statement's header."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    if isinstance(body, list) and body:
        return range(start, body[0].lineno)
    return range(start, node.end_lineno + 1)


def unrun(path: Path, ran: set[int]) -> list[tuple[int, str]]:
    """(line, first source line) of each statement of ``path`` that
    compiles to code and never ran."""
    source = path.read_text(encoding="utf-8")
    runnable = code_lines(compile(source, str(path), "exec"))
    text = source.splitlines()
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        lines = set(own_lines(node)) & runnable
        if lines and not lines & ran:
            out.append((node.lineno, text[node.lineno - 1].strip()))
    return sorted(out)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    prefix = str(PACKAGE) + "/"
    ran: defaultdict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        sys.settrace(trace)
        try:
            argvs = same_outputs.command_lines(*same_outputs.write_inputs(Path(tmp)))
            from delpezzo import cli

            for argv in argvs:
                sink = io.StringIO()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    try:
                        cli.main(argv)
                    except SystemExit:
                        pass
        finally:
            sys.settrace(None)

    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        for line, first in unrun(path, ran[str(path)]):
            print(f"{path.relative_to(ROOT)}:{line}: {first}")
            total += 1
    print(f"{len(argvs)} command lines: {total} statements never run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
