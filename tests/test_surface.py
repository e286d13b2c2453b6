"""Surface guard: src/utrestrict holds only code that something runs.

Every module-level def, class or assigned name, and every public method, of
src/utrestrict must be used.  A use is an AST Name, Attribute or imported
name anywhere in src/utrestrict, or, in bench/*.py, a NAME token or a string
literal that is a dotted identifier (the tracer names the functions it
rebinds by strings such as "QPoly.shift").  Every __slots__ name of a class
must be read: an attribute load in src/utrestrict, or a NAME token in
bench/*.py, since an attribute that is only stored holds nothing anyone
uses.  Comments and docstrings do not count, and neither do the tests: code
that only tests call belongs in tests/.

The benchmark's tracer (bench/tracer.py) rebinds named functions and
methods of every layer; installing it here makes a rename or deletion of
one of them fail the tests, not only a traced benchmark run.
"""

import ast
import io
import re
import tokenize
import types
from pathlib import Path

from utrestrict import cli, restrict, setpart

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


def slots(tree):
    """Class.name for each __slots__ name of a class in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__"
                        for t in item.targets):
                    for name in ast.literal_eval(item.value):
                        yield f"{node.name}.{name}"


def unread_slots():
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    for path in sorted(BENCH.glob("*.py")):
        with tokenize.open(path) as fh:
            read.update(tok.string
                        for tok in tokenize.generate_tokens(fh.readline)
                        if tok.type == tokenize.NAME)
    names = [name for tree in trees for name in slots(tree)]
    return names, [name for name in names if name.split(".")[1] not in read]


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


def test_every_slot_is_read():
    names, unread = unread_slots()
    # vacuous if it reads no slots: src/utrestrict declares 21
    assert len(names) >= 21 and "RegionSplit.n_gt" in names
    assert unread == []


def test_no_assert_in_src():
    # python -O strips assert statements, so a check in src/ must raise
    found = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def load_tracer():
    """bench/tracer.py as a fresh module, compiled from its source so that
    no bytecode cache is written under bench/."""
    path = BENCH / "tracer.py"
    module = types.ModuleType("tracer")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = load_tracer().Tracer()
    originals = (setpart.enumerate_partitions, restrict.enumerate_partitions,
                 restrict.CoreModule.__dict__["decomposition"])
    try:
        tracer.install()
        # enumeration is traced as a generator: each yield is counted
        assert restrict.enumerate_partitions is not originals[1]
        cli.run(["decompose", "core", "--n", "4", "--k", "2"],
                out=io.StringIO())
        metrics = tracer.layer_metrics(0)
    finally:
        tracer.uninstall()
    assert (setpart.enumerate_partitions, restrict.enumerate_partitions,
            restrict.CoreModule.__dict__["decomposition"]) == originals
    # the partitions of [4] with at most 2 arcs: 1 + 6 + 7
    assert metrics["setpart.partitions"] == 14
    assert metrics["restrict.engine_calls"] == 1
    # core reads its block weights off each skeleton's depth vector and
    # builds no block poset
    assert metrics["nestposet.block_poset_calls"] == 0
    assert metrics["setpart.uncross_calls"] == 0


def test_tracer_counts_the_pruned_peel_scan():
    # the per-layer counter the benchmark gates on: the peel scan yields
    # only the 450 partitions peel keeps (10,096 without its arc weight and bound)
    tracer = load_tracer().Tracer()
    try:
        tracer.install()
        cli.run(["decompose", "peel", "--split", "3,3,3", "--b", "2",
                 "--f", "4"], out=io.StringIO())
        metrics = tracer.layer_metrics(0)
    finally:
        tracer.uninstall()
    assert metrics["setpart.partitions"] == metrics["restrict.terms"] == 450
    assert metrics["restrict.keep_ratio"] == 1.0
    # peel pools the blocks by their end points: one block poset per
    # endpoint skeleton of the 450 partitions
    assert metrics["nestposet.block_poset_calls"] == 64
