"""List the statements of ``src/dhjac`` that the Tier-1 tests never run.

    python tools/line_trace.py [pytest arguments]

Runs the Tier-1 suite (``tests/``, or the given pytest arguments) in this
process under ``sys.settrace`` and ``threading.settrace``, with a line tracer
on the frames of ``src/dhjac`` only, and prints ``path:line: source`` for
every statement none of them ran, then a count.  It needs no coverage
package: a statement is the ``ast`` node, whose lines with bytecode are
those its code objects list (``co_lines``), and it ran when any of them fired
a line event.  A compound statement (``if``, ``def``, ...) counts its header
only; its body is judged statement by statement.  ``dhjac`` must not be
imported before the tracer starts, so that the module bodies are traced too.
The exit status is pytest's.
"""

from __future__ import annotations

import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dhjac"


def executable_lines(code) -> set[int]:
    """The lines with bytecode of ``code`` and of every code object nested in it."""
    lines = {line for *_, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def statement_lines(tree: ast.AST):
    """``(statement, its own lines)`` of every statement: a compound statement's header
    (with its decorators) up to its first child statement, a simple one all its lines."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", []))])
        body = [child for field in ("body", "handlers", "orelse", "finalbody")
                for child in getattr(node, field, [])]
        last = min(child.lineno for child in body) - 1 if body else node.end_lineno
        yield node, range(first, last + 1)


def unrun_statements(ran: dict[str, set[int]]) -> list[tuple[Path, int]]:
    """``(path, line)`` of each statement of the package with bytecode that fired no line
    event in ``ran`` (file name -> lines)."""
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = executable_lines(compile(source, str(path), "exec"))
        hit = ran.get(str(path), set())
        for node, own in statement_lines(ast.parse(source)):
            mine = lines.intersection(own)
            if mine and not mine & hit:
                missed.append((path, node.lineno))
    return sorted(set(missed))


def main(argv: list[str]) -> int:
    import pytest

    if "dhjac" in sys.modules:
        raise SystemExit("dhjac was imported before the tracer started")
    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        # a frame outside the package gets no line tracer, so the suite runs at near speed
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = unrun_statements(ran)
    for path, line in missed:
        text = path.read_text().splitlines()[line - 1].strip()
        print(f"{path.relative_to(ROOT)}:{line}: {text}")
    print(f"{len(missed)} statements of src/dhjac not run")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
