"""Surface guard: src/utrestrict holds only code that something runs.

Every module-level def, class or assigned name, and every public method, of
src/utrestrict must be used.  A use is an AST Name, Attribute or imported
name anywhere in src/utrestrict, or, in bench/*.py, a NAME token or a string
literal that is a dotted identifier (the tracer names the functions it
rebinds by strings such as "QPoly.shift").  Comments and docstrings do not
count, and neither do the tests: code that only tests call belongs in
tests/.
"""

import ast
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "utrestrict"
BENCH = ROOT / "bench"

ALLOWED = {"__version__"}
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def definitions(tree):
    """Module-level defs, classes and assigned names, and public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}"


def src_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def bench_uses(path):
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NAME:
                yield tok.string
            elif tok.type == tokenize.STRING:
                try:
                    value = ast.literal_eval(tok.string)
                except (ValueError, SyntaxError):
                    continue    # an f-string
                if isinstance(value, str) and DOTTED.fullmatch(value):
                    yield from value.split(".")


def unused_definitions():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    used = {name for tree in trees.values() for name in src_uses(tree)}
    for path in sorted(BENCH.glob("*.py")):
        used.update(bench_uses(path))
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in definitions(tree)
            if name not in ALLOWED and name.split(".")[-1] not in used]


def test_every_definition_is_used():
    assert unused_definitions() == []


def test_guard_sees_its_inputs():
    # the guard is vacuous if it reads no source or no bench file
    assert len(list(SRC.glob("*.py"))) >= 7
    assert (BENCH / "tracer.py").is_file()
    names = {name for path in SRC.glob("*.py")
             for name in definitions(ast.parse(path.read_text()))}
    assert {"module_trace", "QPoly.shift", "enumerate_partitions"} <= names
