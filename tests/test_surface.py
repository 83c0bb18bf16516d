"""The public surface of the package: every module-level function and
class in src/rfclutter has a caller in the program, and every dataclass
field a reader.

A caller is a reference, outside the definition's own body, somewhere
in the code under src/, scripts/ or bench/: a name, an attribute or an
import alias.  Docstrings, comments and strings do not count.  A
routine that only the tests call belongs in tests/oracles.py.

A reader of a field is an attribute load of its name in that code,
outside `__post_init__` and `__setattr__` (which only check or normalize
what was stored), or a string constant equal to its name, as
`scenario._KEYS` names the fields that `scenario_text` reads.  A field
that only the tests read is write-only for the program.

State that lives as long as the process is named: every module-level
name in src/rfclutter that a function rebinds (`global`) or mutates (a
subscript or attribute store or delete on it) is listed in
PROCESS_STATE with why it lives that long and what bounds its memory,
so that no cache can hide from the determinism contract.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rfclutter"
PROGRAM_DIRS = ("src", "scripts", "bench")

# name -> why it stays public without a caller
ALLOWED = {
    "clutter_covariance": "the paper's statistical clutter model, which the roadmap keeps; "
                          "acceptance test 04 checks it",
    "sample_covariance": "the paper's statistical clutter model, which the roadmap keeps; "
                         "acceptance test 04 checks it",
}


def public_definitions() -> dict[tuple[Path, str], ast.AST]:
    """(module path, name) -> node of each module-level public def or class."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                found[(path, node.name)] = node
    return found


def referenced(definitions) -> set[tuple[Path, str]]:
    """The definitions that some program code refers to."""
    by_name: dict[str, list[tuple[Path, ast.AST]]] = {}
    for (path, name), node in definitions.items():
        by_name.setdefault(name, []).append((path, node))
    hits = set()
    for directory in PROGRAM_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for ref in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(ref, ast.Name):
                    name = ref.id
                elif isinstance(ref, ast.Attribute):
                    name = ref.attr
                elif isinstance(ref, ast.alias):
                    name = ref.name.rsplit(".", 1)[-1]
                else:
                    continue
                for home, node in by_name.get(name, ()):
                    inside = (path == home and hasattr(ref, "lineno")
                              and node.lineno <= ref.lineno <= node.end_lineno)
                    if not inside:
                        hits.add((home, name))
    return hits


def test_every_public_definition_has_a_caller():
    definitions = public_definitions()
    hits = referenced(definitions)
    uncalled = sorted(f"{path.stem}.{name}" for path, name in definitions
                      if (path, name) not in hits and name not in ALLOWED)
    assert uncalled == []


def test_the_allowed_names_are_public_and_uncalled():
    """An allowed name that gains a caller, or goes, leaves the list."""
    definitions = public_definitions()
    hits = referenced(definitions)
    allowed = {(path, name) for path, name in definitions if name in ALLOWED}
    assert sorted(name for _, name in allowed) == sorted(ALLOWED)
    assert allowed.isdisjoint(hits)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        f = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) == "dataclass":
            return True
    return False


def dataclass_fields() -> dict[str, str]:
    """"Class.field" -> field name of every dataclass field in the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        found[f"{node.name}.{stmt.target.id}"] = stmt.target.id
    return found


def read_names() -> set[str]:
    """Attribute names the program loads outside `__post_init__` and
    `__setattr__`, and its string constants."""
    names = set()
    for directory in PROGRAM_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            skipped = {id(inner) for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef)
                       and node.name in ("__post_init__", "__setattr__")
                       for inner in ast.walk(node)}
            for node in ast.walk(tree):
                if id(node) in skipped:
                    continue
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    names.add(node.value)
    return names


def test_every_dataclass_field_has_a_reader():
    fields = dataclass_fields()
    assert "ChannelImpulseResponse.taps" in fields
    names = read_names()
    assert sorted(q for q, name in fields.items() if name not in names) == []


# module-level name -> (why it lives as long as the process, what bounds its memory)
PROCESS_STATE = {
    "workers._pool": ("the one worker-thread pool, built on first use",
                      "one thread per CPU"),
    "workers._pool_lock": ("builds the pool once; a forked child replaces it",
                           "one lock"),
    "workers._local": ("marks a thread running a block, so its own blocks run inline",
                       "one flag per thread"),
    "rxsim._noise": ("the unit receiver noise of the last cube key, kept once the key "
                     "repeats, so a replayed CPI draws its noise once",
                     "one key and at most one CPI's noise, 8 N M R bytes"),
    "rxsim._noise_lock": ("orders the updates of rxsim._noise; a forked child replaces it",
                          "one lock"),
}

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope: ast.AST):
    """The nodes of a function's own body, not of the functions or
    classes nested in it (their names are yielded, their bodies not)."""
    for child in ast.iter_child_nodes(scope):
        yield child
        if not isinstance(child, _SCOPES + (ast.ClassDef,)):
            yield from _own_nodes(child)


def _local_names(fn) -> set[str]:
    """The names a function binds itself: its parameters and every name
    it stores, imports or defines, less those it declares global."""
    args = fn.args
    names = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
    names |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
    declared = set()
    for node in _own_nodes(fn):
        if isinstance(node, ast.Name) and isinstance(node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add((node.asname or node.name).split(".")[0])
        elif isinstance(node, _SCOPES[:2] + (ast.ClassDef,)):
            names.add(node.name)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
    return names - declared


def _module_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, _SCOPES[:2] + (ast.ClassDef,)):
            names.add(node.name)
    return names


def process_state(package: Path = PACKAGE) -> set[str]:
    """"module.name" of every module-level name a function in the
    package rebinds or mutates."""
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = _module_names(tree)

        def visit(node, enclosing: frozenset):
            for child in ast.iter_child_nodes(node):
                scope = enclosing
                if isinstance(child, _SCOPES):
                    scope = enclosing | _local_names(child)
                    for inner in _own_nodes(child):
                        if isinstance(inner, ast.Global):
                            found.update(f"{path.stem}.{name}" for name in inner.names)
                        elif (isinstance(inner, (ast.Attribute, ast.Subscript))
                              and isinstance(inner.ctx, (ast.Store, ast.Del))):
                            base = inner.value
                            while isinstance(base, (ast.Attribute, ast.Subscript)):
                                base = base.value
                            if (isinstance(base, ast.Name) and base.id in module
                                    and base.id not in scope):
                                found.add(f"{path.stem}.{base.id}")
                visit(child, scope)

        visit(tree, frozenset())
    return found


def test_every_piece_of_process_state_is_named_with_its_bound():
    assert all(why and bound for why, bound in PROCESS_STATE.values())
    assert sorted(process_state()) == sorted(PROCESS_STATE)


def test_the_process_state_rule_sees_rebinding_and_mutation(tmp_path):
    """The rule flags a `global` rebinding and subscript and attribute
    stores on a module-level name, and not the same stores on a
    parameter, a local or a closure's own variable."""
    (tmp_path / "probe.py").write_text(
        "import threading\n"
        "_cache = {}\n_hits = 0\n_flag = threading.local()\n_kept = {}\n"
        "def remember(key, value, box):\n"
        "    global _hits\n"
        "    _hits += 1\n"
        "    _cache[key] = value\n"
        "    box[key] = value\n"
        "    _kept = {}\n"
        "    _kept[key] = value\n"
        "    def inner(self):\n"
        "        _flag.on = True\n"
        "        self.value = value\n"
        "        _kept[key] = value\n"
        "    return inner\n", encoding="utf-8")
    assert sorted(process_state(tmp_path)) == ["probe._cache", "probe._flag", "probe._hits"]
