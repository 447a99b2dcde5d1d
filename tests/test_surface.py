"""The public surface of rwre: every name rwre/__init__.py exports resolves,
every public top-level function or class in src/rwre has a reader, every
defaulted parameter of a public function or method is set by some call,
and every dataclass field is read.

A reader is a reference found by AST (a name, an attribute or an imported
name, so docstrings and comments do not count) from
- any src/rwre module other than __init__.py, outside the name's own
  definition;
- tests/test_acceptance.py;
- perfbench/*.py, which these tests only read, including the functions
  perfbench/tracer.py's TARGETS names by string to wrap them;
or an entry of ALLOWLIST, which gives its reason.  Calls and field reads
count in the same files; PARAM_ALLOWLIST and FIELD_ALLOWLIST give the
reasons for the parameters and fields that only other tests use.
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

PARAM_ALLOWLIST = {
    "main(argv)": "argparse reads sys.argv when argv is None; "
                  "tests/test_cli.py passes the arguments",
    "support_inheritance_check(seed)": "tests/test_pair.py, the check's "
                                       "only caller, sets it",
    "support_inheritance_check(margin)": "tests/test_pair.py, the check's "
                                         "only caller, sets it",
}

FIELD_ALLOWLIST = {
    "JointRegenRecord.lambda_levels": "the levels of the fresh-level rounds, "
                                      "which tests/test_pair.py checks",
    "YChainSample.rejections": "the count of rejected slabs, which "
                               "tests/test_pair.py checks",
    "RegenerationRecord.margin": "tests/test_regen.py checks each confirmed "
                                 "regeneration against it",
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


def _reader_trees() -> list:
    files = [ROOT / "tests" / "test_acceptance.py",
             *sorted((ROOT / "perfbench").glob("*.py"))]
    return [ast.parse(p.read_text()) for p in files]


def _read_elsewhere() -> set:
    refs = _traced((ROOT / "perfbench" / "tracer.py").read_text())
    return refs.union(*map(_refs, _reader_trees()))


def _name(node):
    """The name an expression ends in: f for f and for obj.f."""
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _settings(tree, own=None) -> set:
    """(function name, position or parameter name) pairs that the calls in
    tree set, calls to `own` aside.  functools.partial(f, ...) sets f's
    parameters; *args and **kwargs set every position ("*") or name
    ("**")."""
    out = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn, args = _name(node.func), node.args
        if fn == "partial" and args:
            fn, args = _name(args[0]), args[1:]
        if fn is None or fn == own:
            continue
        out |= {(fn, i) for i in range(len(args))}
        out |= {(fn, "*") for a in args if isinstance(a, ast.Starred)}
        out |= {(fn, k.arg or "**") for k in node.keywords}
    return out


def _defaulted(fn: ast.FunctionDef, skip: int) -> list:
    """(position, name) of fn's parameters with a default, the position
    counted after the first `skip` parameters and None for keyword-only
    ones."""
    a = fn.args
    pos = a.posonlyargs + a.args
    first = len(pos) - len(a.defaults)
    return [(i - skip, p.arg) for i, p in enumerate(pos) if i >= first] + \
        [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults)
         if d is not None]


def unset(library: dict, reader_trees: list, allow=PARAM_ALLOWLIST) -> list:
    """Defaulted parameters of the public top-level functions and of the
    public methods of public classes of the library modules that no call
    in the library (outside the function's own definition) or in
    reader_trees sets and `allow` does not name, as
    'module.function(parameter)'."""
    defs, sets = [], set().union(*(_settings(t) for t in reader_trees))
    for mod, source in library.items():
        for stmt in ast.parse(source).body:
            fns = [(stmt, "", 0)] if isinstance(stmt, ast.FunctionDef) else []
            if isinstance(stmt, ast.ClassDef) and \
                    not stmt.name.startswith("_"):
                fns = [(f, f"{stmt.name}.", 1) for f in stmt.body
                       if isinstance(f, ast.FunctionDef)]
            for fn, cls, skip in fns:
                if not fn.name.startswith("_"):
                    defs += [(f"{mod}.", cls, fn.name, i, p)
                             for i, p in _defaulted(fn, skip)]
            sets |= _settings(stmt, getattr(stmt, "name", None))
    return [f"{mod}{cls}{fn}({p})" for mod, cls, fn, i, p in defs
            if not {(fn, p), (fn, i), (fn, "*"), (fn, "**")} & sets
            and f"{cls}{fn}({p})" not in allow]


def _scopes(node, cls=None):
    """(scope, class) for each function and class under node; class names
    the class a function is a method of."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            yield child, cls
        yield from _scopes(child, child.name
                           if isinstance(child, ast.ClassDef) else None)


def _own_nodes(scope):
    """The nodes of a scope, outside the functions and classes in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            todo += ast.iter_child_nodes(node)


def _field_reads(tree, fields: dict, returns: dict) -> set:
    """(class, field) pairs that tree reads.

    returns maps the library's classes to themselves and the functions
    annotated to return one of them to that class.  x.f reads field f of
    class C when x is known to hold a C: self in C's methods, a parameter
    annotated C, a name that every assignment in its scope gives C(...) or
    the result of a function annotated to return C, or such a call itself;
    x.__dict__ then reads every field of C.  When x is not known, x.f reads
    field f of every class.
    """
    def kind(node, env):
        if isinstance(node, ast.Call):
            return returns.get(_name(node.func))
        return env.get(node.id) if isinstance(node, ast.Name) else None

    out = set()
    for scope, cls in [(tree, None), *_scopes(tree)]:
        env, nodes = {}, list(_own_nodes(scope))
        if isinstance(scope, ast.FunctionDef):
            params = scope.args.posonlyargs + scope.args.args
            env = {p.arg: returns[_name(p.annotation)] for p in params
                   if _name(p.annotation) in returns}
            if cls and params:
                env[params[0].arg] = cls
        for node in nodes:
            if isinstance(node, ast.Assign):
                for t in node.targets:
                    if isinstance(t, ast.Name):
                        c = kind(node.value, env)
                        env[t.id] = c if env.get(t.id, c) == c else None
        for node in nodes:
            if isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                c = kind(node.value, env)
                if c is None:
                    out |= {(k, node.attr) for k in fields}
                elif node.attr == "__dict__":
                    out |= {(c, f) for f in fields.get(c, ())}
                else:
                    out.add((c, node.attr))
    return out


def unread_fields(library: dict, reader_trees: list,
                  allow=FIELD_ALLOWLIST) -> list:
    """Fields of the library's dataclasses that neither the library nor
    reader_trees reads and `allow` does not name, as
    'module.Class.field'."""
    trees = {mod: ast.parse(source) for mod, source in library.items()}
    fields, returns, where = {}, {}, {}
    for mod, tree in trees.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.ClassDef):
                returns[stmt.name], where[stmt.name] = stmt.name, mod
                if any(_name(getattr(d, "func", d)) == "dataclass"
                       for d in stmt.decorator_list):
                    fields[stmt.name] = [f.target.id for f in stmt.body
                                         if isinstance(f, ast.AnnAssign)]
    for tree in trees.values():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and \
                    _name(stmt.returns) in returns:
                returns[stmt.name] = _name(stmt.returns)
    read = set().union(*(_field_reads(t, fields, returns)
                         for t in [*trees.values(), *reader_trees]))
    return [f"{where[c]}.{c}.{f}" for c, fs in fields.items() for f in fs
            if (c, f) not in read and f"{c}.{f}" not in allow]


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


def test_every_defaulted_parameter_is_set_by_a_caller():
    assert unset(_library(), _reader_trees()) == []


def test_every_dataclass_field_is_read():
    assert unread_fields(_library(), _reader_trees()) == []


def test_param_and_field_allowlists_hold_exactly_what_no_reader_uses():
    # an entry whose parameter gains a caller, or whose field gains a
    # reader, or that is deleted, leaves its list
    params = unset(_library(), _reader_trees(), allow=())
    assert sorted(p.partition(".")[2] for p in params) == \
        sorted(PARAM_ALLOWLIST)
    fields = unread_fields(_library(), _reader_trees(), allow=())
    assert sorted(f.partition(".")[2] for f in fields) == \
        sorted(FIELD_ALLOWLIST)


def test_rule_flags_a_default_that_no_call_sets():
    library = {"walk": "def simulate(env, n=1, seed=0, *, cap=9):\n"
                       "    return simulate(env, seed=1)\n"
                       "class Path:\n    def cut(self, at=0):\n"
                       "        return at\n",
               "clt": "f = partial(simulate, n=2)\n"}
    # the recursive call sets nothing; partial sets n
    assert unset(library, [], allow=()) == [
        "walk.simulate(seed)", "walk.simulate(cap)", "walk.Path.cut(at)"]
    # positional and keyword calls in reader files set them too
    readers = [ast.parse("simulate(e, 2, 3, cap=4)\np.cut(1)\n")]
    assert unset(library, readers, allow=()) == []
    assert unset(library, [ast.parse("simulate(*a, **k)\np.cut(at=1)\n")],
                 allow=()) == []
    assert unset(library, [], allow={"simulate(seed)": "",
                                     "simulate(cap)": "",
                                     "Path.cut(at)": ""}) == []


def test_rule_flags_a_field_that_nothing_reads():
    library = {"regen": "@dataclass\nclass Rec:\n    tau: int\n"
                        "    margin: int\n    levels: int\n"
                        "    def n(self):\n        return self.tau\n"
                        "def detect(path) -> Rec:\n    return Rec(1, 2, 3)\n",
               "walk": "@dataclass\nclass Path:\n    levels: int\n"
                       "def scan(path: Path):\n"
                       "    rec = detect(path)\n"
                       "    return path.levels, Rec(0, 0, 0).tau\n"}
    # path.levels reads Path's field, not Rec's
    assert unread_fields(library, [], allow=()) == [
        "regen.Rec.margin", "regen.Rec.levels"]
    # a read through a name of known class, an unknown receiver and
    # __dict__ all count
    for code in ("rec = detect(p)\nrec.margin, rec.levels\n",
                 "x.margin, x.levels\n", "detect(p).__dict__\n"):
        assert unread_fields(library, [ast.parse(code)], allow=()) == []
    # a name assigned two classes is not known, so x.margin counts
    assert unread_fields(library, [ast.parse(
        "x = Path(1)\nx = detect(p)\nx = Path(2)\nx.margin, x.levels\n")],
        allow=()) == []
    assert unread_fields(library, [], allow={"Rec.margin": "",
                                             "Rec.levels": ""}) == []
