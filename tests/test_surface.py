"""The public surface of rwre: every name rwre/__init__.py exports resolves,
and every public top-level function or class in src/rwre has a reader.

A reader is a reference found by AST (a name, an attribute or an imported
name, so docstrings and comments do not count) from
- any src/rwre module other than __init__.py, outside the name's own
  definition;
- tests/test_acceptance.py;
- perfbench/*.py, which these tests only read, including the functions
  perfbench/tracer.py's TARGETS names by string to wrap them;
or an entry of ALLOWLIST, which gives its reason.
"""

import ast
from pathlib import Path

import rwre

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "rwre"

ALLOWLIST = {
    "support_inheritance_check": "compares the supports of q and qbar; "
                                 "tests/test_pair.py runs it",
    "stream_u01": "the scalar reference tests/test_rng.py checks the array "
                  "draws against",
    "diffusive_scale": "the functional-CLT scaling B_n(t) that ROADMAP "
                       "item 4 builds on",
    "dirichlet_backtracking_model": "a test model of tests/test_walk.py and "
                                    "tests/test_pair.py",
}


def _refs(tree) -> set:
    """Names, attribute names and imported names referenced in tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def _traced(tracer_source: str) -> set:
    """The function names in perfbench/tracer.py's TARGETS entries."""
    for node in ast.parse(tracer_source).body:
        if isinstance(node, ast.Assign) and \
                [t.id for t in node.targets] == ["TARGETS"]:
            return {entry.elts[1].value for entry in node.value.elts}
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def unread(library: dict, read_elsewhere: set, allow=ALLOWLIST) -> list:
    """Public top-level functions and classes of the library modules
    (name -> source) that neither the library nor read_elsewhere, the
    references of the other reader files, reads and `allow` does not
    name."""
    defs, seen = [], set(read_elsewhere)
    for name, source in library.items():
        for stmt in ast.parse(source).body:
            refs = _refs(stmt)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                refs.discard(stmt.name)    # its own definition reads nothing
                if not stmt.name.startswith("_"):
                    defs.append(f"{name}.{stmt.name}")
            seen |= refs
    return [d for d in defs
            if d.rpartition(".")[2] not in seen.union(allow)]


def _library() -> dict:
    return {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))
            if p.name != "__init__.py"}


def _read_elsewhere() -> set:
    files = [ROOT / "tests" / "test_acceptance.py",
             *sorted((ROOT / "perfbench").glob("*.py"))]
    refs = _traced((ROOT / "perfbench" / "tracer.py").read_text())
    return refs.union(*(_refs(ast.parse(p.read_text())) for p in files))


def test_exports_resolve():
    tree = ast.parse((SRC / "__init__.py").read_text())
    names = [a.asname or a.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for a in node.names]
    assert len(names) > 40
    assert [n for n in names if not hasattr(rwre, n)] == []


def test_every_public_definition_has_a_reader():
    assert unread(_library(), _read_elsewhere()) == []


def test_allowlist_holds_exactly_the_names_without_another_reader():
    # an entry whose name gains a reader, or is deleted, leaves the list
    flagged = unread(_library(), _read_elsewhere(), allow=())
    assert sorted(d.rpartition(".")[2] for d in flagged) == sorted(ALLOWLIST)


def test_rule_flags_a_definition_without_a_reader():
    library = {"walk": "def first_passage(path, level):\n"
                       "    return first_passage(path, level - 1)\n"
                       "def simulate(env):\n    '''first_passage'''\n"
                       "    # first_passage\n    return env\n",
               "clt": "from .walk import simulate\n"}
    assert unread(library, set()) == ["walk.first_passage"]
    # a reference from another module, or from a reader file, is a reader
    assert unread({**library, "pair": "x = walk.first_passage\n"},
                  set()) == []
    assert unread(library, _refs(ast.parse("first_passage(p, 1)\n"))) == []
    assert unread(library, _traced(
        "TARGETS = ((\"rwre.walk\", \"first_passage\", 0),)\n")) == []
