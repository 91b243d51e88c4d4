"""Lines of ``src/spinorlab`` that the tier-1 suite never reaches, with the
standard library only.

Usage, from any directory:

    python3 linecov/run.py [OUT]

runs the tier-1 tests (``tests/``) in this process under a ``sys.settrace``
tracer limited to the package's source files, and writes the lines that no
test reached to OUT (default ``linecov/unreached.json``).  Tests that start
a child interpreter are not traced, so a line reached only there counts as
unreached.  The run takes several times as long as plain tier-1.

A line counts when it holds an instruction past a code object's prologue
(``_lines``), so a ``def`` line counts in the enclosing scope only.  Each unreached line is keyed as ``file::function::text``, the
function being the innermost code object's ``co_qualname`` (``<module>``
at module level) and the text the stripped source line, and the value is
the number of such lines.  The key holds no line number, so an edit
elsewhere in a file does not move it.  ``linecov/test_linecov.py`` runs
this and fails when a line that is not on the committed list goes
unreached, so the list can only shrink.

A code object is traced line by line only until each of its lines has been
reached once; after that its calls cost one dict lookup.
"""

from __future__ import annotations

import dis
import json
import os
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "spinorlab"
LIST = Path(__file__).resolve().parent / "unreached.json"


def _lines(code) -> set:
    """The lines of ``code``'s own instructions after its prologue, which
    ends at the first RESUME; a RESUME, which raises no line event, counts
    nowhere."""
    out, body = set(), False
    for i in dis.get_instructions(code):
        if i.opname == "RESUME":
            body = True
        elif body and i.positions.lineno:
            out.add(i.positions.lineno)
    return out


def _code_objects(code):
    yield code
    for c in code.co_consts:
        if hasattr(c, "co_code"):
            yield from _code_objects(c)


_EMPTY = {}


def unreached(run, src: Path = SRC) -> dict:
    """Call ``run()`` under the tracer and return ``{"file::function::text":
    count}``, sorted, over the lines of the modules in ``src`` that it did
    not reach.

    Every code object of those modules is compiled here first and gets its
    entry ``(lines not yet reached, line tracer)``, found from a live code
    object by its file, qualname and first line through nested dicts.  So
    a traced call allocates nothing the garbage collector tracks, beyond
    the frame object that tracing itself makes, and the suite's check that
    no collection starts inside a run holds under the tracer too."""
    table, sources = {}, {}
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        sources[str(path)] = text.splitlines()
        by_name = table[str(path)] = {}
        for code in _code_objects(compile(text, str(path), "exec")):
            by_name.setdefault(code.co_qualname, {})[code.co_firstlineno] = _line_tracer(_lines(code))
    left = {}

    def call(frame, event, arg):
        code = frame.f_code
        entry = left.get(code, False)
        if entry is False:
            entry = left[code] = (
                table.get(code.co_filename, _EMPTY).get(code.co_qualname, _EMPTY).get(code.co_firstlineno)
            )
        return entry[1] if entry and entry[0] else None

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    out = Counter()
    for file, by_name in table.items():
        base, source = Path(file).name, sources[file]
        for name, by_line in by_name.items():
            for todo, _ in by_line.values():
                for n in todo:
                    out[f"{base}::{name}::{source[n - 1].strip()}"] += 1
    return dict(sorted(out.items()))


def _line_tracer(todo: set) -> tuple:
    """``(todo, tracer)``: the local tracer of one code object, which
    crosses each line off ``todo`` as it is reached."""

    def line(frame, event, arg):
        if event == "line":
            todo.discard(frame.f_lineno)
        return line

    return todo, line


def _tier1() -> int:
    import pytest

    return pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors", str(ROOT / "tests")])


def main(argv) -> int:
    out = Path(argv[1]).resolve() if len(argv) > 1 else LIST
    if "spinorlab" in sys.modules:
        raise SystemExit("spinorlab was imported before the tracer started")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    status = []
    lines = unreached(lambda: status.append(_tier1()))
    if status[0] != 0:
        print(f"tier-1 failed (exit {status[0]}); {out} not written", file=sys.stderr)
        return 1
    out.write_text(json.dumps(lines, indent=1, ensure_ascii=False) + "\n")
    print(f"{sum(lines.values())} unreached lines written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
