"""Every library function and class has a caller outside the tests."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "treecell"

# Pinned by the acceptance gates and golden digests, which are not edited:
# gates 04 and 06 call random_genome, and the golden operator digest calls
# canonicalize.  Nothing else in the program needs either.
ALLOWED = {"random_genome", "canonicalize"}


def _definitions(path: Path):
    """(name, first line, last line) of each module-level function and class."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno


def test_every_module_level_name_is_used_outside_its_definition():
    sources = {path: path.read_text(encoding="utf-8")
               for folder in ("src", "scripts", "perfbench")
               for path in sorted((ROOT / folder).rglob("*.py"))}
    unused = set()
    for path in sorted(PACKAGE.glob("*.py")):
        lines = sources[path].splitlines()
        for name, first, last in _definitions(path):
            word = re.compile(rf"\b{name}\b")
            rest = "\n".join(lines[:first - 1] + lines[last:])
            if not word.search(rest) and not any(
                    word.search(text) for other, text in sources.items() if other != path):
                unused.add(name)
    assert sorted(unused - ALLOWED) == []
