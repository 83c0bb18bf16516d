"""The public surface of the package: every module-level function and
class in src/rfclutter, and every public method and property of its
classes, has a caller in the program; every dataclass field has a
reader; and every option has a setter.

A caller is a reference, outside the definition's own body, somewhere
in the code under src/, scripts/ or bench/: a name, an attribute or an
import alias, or for a method or property an attribute.  Docstrings,
comments and strings do not count.  A routine that only the tests call
belongs in tests/oracles.py.

A reader of a field is an attribute load of its name in that code,
outside `__post_init__` and `__setattr__` (which only check or normalize
what was stored), or a string constant equal to its name, as
`scenario._KEYS` names the fields that `scenario_text` reads.  A field
that only the tests read is write-only for the program.

An option is a parameter or a dataclass field with a default.  A
parameter's setter is a call in the program that passes it, by keyword
or by position, to a function or method of its name.  A field's setter
passes it to its class, or to `cls(...)` in one of the class's
classmethods, or to `dataclasses.replace`; or stores it through an
attribute (`x.name = ...`, or `append`, `extend` or `insert` on
`x.name`) outside `__post_init__`; or names it in a string constant, as
`scenario._KEYS` names the fields that `parse_scenario` sets.  A
`**mapping` passes nothing by name.  An option with no setter is a
setting no run can reach: it becomes a constant, or goes.

Every dataclass in scenario.py is frozen: a scenario and its group
specs are checked once, at construction.

State that lives as long as the process is named: every module-level
name in src/rfclutter that a function rebinds (`global`) or mutates (a
subscript or attribute store or delete on it), and every module-level
function that `functools.cache` or `lru_cache` memoizes, is listed in
PROCESS_STATE with why it lives that long and what bounds its memory,
so that no cache can hide from the determinism contract.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rfclutter"
PROGRAM_DIRS = ("src", "scripts", "bench")

# name -> why it stays public without a caller
ALLOWED: dict[str, str] = {}


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


def public_members() -> dict[tuple[Path, str, str], ast.AST]:
    """(module path, class, name) -> node of each public method or
    property of a class in the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
                        found[(path, node.name, stmt.name)] = stmt
    return found


def referenced_members(members) -> set[tuple[Path, str, str]]:
    """The members whose name some program code loads as an attribute,
    outside the member's own body."""
    hits = set()
    for directory in PROGRAM_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            loads = [ref for ref in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(ref, ast.Attribute) and isinstance(ref.ctx, ast.Load)]
            for key, node in members.items():
                home, _, name = key
                if any(ref.attr == name and not (path == home and node.lineno <= ref.lineno
                                                 <= node.end_lineno) for ref in loads):
                    hits.add(key)
    return hits


def test_every_public_definition_has_a_caller():
    definitions = public_definitions()
    hits = referenced(definitions)
    uncalled = sorted(f"{path.stem}.{name}" for path, name in definitions
                      if (path, name) not in hits and name not in ALLOWED)
    assert uncalled == []
    members = public_members()
    assert (PACKAGE / "channel.py", "ChannelImpulseResponse", "dense") in members
    hits = referenced_members(members)
    assert sorted(f"{path.stem}.{cls}.{name}" for path, cls, name in members
                  if (path, cls, name) not in hits) == []


def test_the_allowed_names_are_public_and_uncalled():
    """An allowed name that gains a caller, or goes, leaves the list."""
    definitions = public_definitions()
    hits = referenced(definitions)
    allowed = {(path, name) for path, name in definitions if name in ALLOWED}
    assert sorted(name for _, name in allowed) == sorted(ALLOWED)
    assert allowed.isdisjoint(hits)


def _decorated(node, *names: str) -> bool:
    """Whether a decorator of one of `names` decorates `node`, bare or
    called, with or without a module prefix."""
    for decorator in node.decorator_list:
        f = decorator.func if isinstance(decorator, ast.Call) else decorator
        if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) in names:
            return True
    return False


def _is_dataclass(node: ast.ClassDef) -> bool:
    return _decorated(node, "dataclass")


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


def _frozen(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Call) and any(
        k.arg == "frozen" and isinstance(k.value, ast.Constant) and k.value.value is True
        for k in d.keywords) for d in node.decorator_list)


def test_every_scenario_dataclass_is_frozen():
    """A scenario and its group specs are checked once, at construction,
    so none of them may change afterwards."""
    tree = ast.parse((PACKAGE / "scenario.py").read_text(encoding="utf-8"))
    classes = {node.name: node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and _is_dataclass(node)}
    assert {"Scenario", "TargetSpec", "TransmitterSpec"} <= set(classes)
    assert sorted(name for name, node in classes.items() if not _frozen(node)) == []


def test_every_dataclass_field_has_a_reader():
    fields = dataclass_fields()
    assert "ChannelImpulseResponse.taps" in fields
    names = read_names()
    assert sorted(q for q, name in fields.items() if name not in names) == []


# option -> why it keeps a default that no program call passes
UNSET_OPTIONS = {
    "pipeline.simulate_scenario.waveform":
        "acceptance test 07 simulates a scenario with another waveform through it, "
        "the oracle of the split between channel and waveform",
    "rxsim.read_cube.sha256": "challenge._verify_files passes it through its table of readers",
    "channel.read_ir.sha256": "challenge._verify_files passes it through its table of readers",
    "waveform.read_waveform.sha256":
        "challenge._verify_files passes it through its table of readers",
}


def _program_trees(root: Path = ROOT):
    for directory in PROGRAM_DIRS:
        for path in sorted((root / directory).rglob("*.py")):
            yield ast.parse(path.read_text(encoding="utf-8"))


def _callee(call: ast.Call) -> str | None:
    f = call.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether `call` passes the parameter or field `name`, which sits
    at `position` among the positional ones (None: keyword only)."""
    if any(k.arg == name for k in call.keywords):
        return True
    if position is None:
        return False
    return any(isinstance(arg, ast.Starred) or i == position
               for i, arg in enumerate(call.args))


def defaulted_parameters(package: Path = PACKAGE) -> dict[str, tuple[str, int | None]]:
    """"module[.Class].function.parameter" -> (function name, position
    among the arguments a call passes) of every parameter with a
    default of a function or method in the package."""
    found = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = owners.get(fn)
            method = isinstance(owner, ast.ClassDef)
            bound = method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                       for d in fn.decorator_list)
            prefix = f"{path.stem}.{owner.name}" if method else path.stem
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], start=first):
                found[f"{prefix}.{fn.name}.{arg.arg}"] = (fn.name, i - bound)
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    found[f"{prefix}.{fn.name}.{arg.arg}"] = (fn.name, None)
    return found


def unset_parameters(package: Path = PACKAGE, root: Path = ROOT) -> set[str]:
    """The defaulted parameters that no call in the program passes."""
    calls: dict[str, list[ast.Call]] = {}
    for tree in _program_trees(root):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
    return {key for key, (fn, position) in defaulted_parameters(package).items()
            if not any(_passes(c, key.rsplit(".", 1)[1], position) for c in calls.get(fn, ()))}


def defaulted_fields(package: Path = PACKAGE) -> dict[str, tuple[str, str, int, list]]:
    """"module.Class.field" -> (class, field, position, the `cls(...)`
    calls of the class's classmethods) of every dataclass field with a
    default in the package."""
    found = {}
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ClassDef) and _is_dataclass(node)):
                continue
            own = [call for stmt in node.body if isinstance(stmt, ast.FunctionDef)
                   and any(isinstance(d, ast.Name) and d.id == "classmethod"
                           for d in stmt.decorator_list)
                   for call in ast.walk(stmt)
                   if isinstance(call, ast.Call) and _callee(call) == "cls"]
            fields = [stmt for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            for i, stmt in enumerate(fields):
                if stmt.value is not None:
                    found[f"{path.stem}.{node.name}.{stmt.target.id}"] = (
                        node.name, stmt.target.id, i, own)
    return found


_MUTATORS = ("append", "extend", "insert")


def unset_fields(package: Path = PACKAGE, root: Path = ROOT) -> set[str]:
    """The defaulted dataclass fields that nothing in the program sets."""
    calls: dict[str, list[ast.Call]] = {}
    named = set()
    for tree in _program_trees(root):
        skipped = {id(inner) for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
                   for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node), []).append(node)
                f = node.func
                if (isinstance(f, ast.Attribute) and f.attr in _MUTATORS
                        and isinstance(f.value, ast.Attribute)):
                    named.add(f.value.attr)
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                  and id(node) not in skipped):
                named.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                named.add(node.value)
    named |= {k.arg for c in calls.get("replace", ()) for k in c.keywords}
    return {key for key, (cls, name, position, own) in defaulted_fields(package).items()
            if name not in named
            and not any(_passes(c, name, position) for c in calls.get(cls, []) + own)}


def test_every_option_has_a_setter():
    assert "terrain.ElevationGrid.origin_lat" in defaulted_fields()
    assert "channel.ensemble_second_moment.num_realizations" in defaulted_parameters()
    assert sorted(unset_parameters() | unset_fields()) == sorted(UNSET_OPTIONS)
    assert all(UNSET_OPTIONS.values())


def test_the_option_rule_sees_unpassed_parameters_and_unset_fields(tmp_path):
    """A default passed by keyword, by position or through `*args`, or
    a field passed to `cls(...)` or `replace`, stored or named, has a
    setter; one passed only through `**kwargs`, or by a test, has none."""
    package = tmp_path / "src" / "probe"
    package.mkdir(parents=True)
    (package / "probe.py").write_text(
        "from dataclasses import dataclass, replace\n"
        "def f(a, b=1, c=2, *, d=3, e=4): ...\n"
        "def g(a, b=1, c=2): ...\n"
        "class K:\n"
        "    def m(self, a, b=1): ...\n"
        "@dataclass\n"
        "class D:\n"
        "    x: int\n"
        "    y: int = 0\n"
        "    z: int = 0\n"
        "    w: int = 0\n"
        "    v: list = None\n"
        "    u: int = 0\n"
        "    t: int = 0\n"
        "    s: str = 'kept'\n"
        "    @classmethod\n"
        "    def make(cls): return cls(1, t=2)\n"
        "    def __post_init__(self): self.u = 0\n"
        "def run(k, d, kw):\n"
        "    f(0, 1, e=2)\n"
        "    g(0, *kw)\n"
        "    k.m(0, **kw)\n"
        "    D(0, 1)\n"
        "    D(0, **kw)\n"
        "    replace(d, z=1)\n"
        "    d.w = 2\n"
        "    d.v.append(3)\n"
        "    return getattr(d, 's')\n", encoding="utf-8")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_probe.py").write_text(
        "from probe.probe import D, f\nf(0, c=1)\nD(0, u=1)\n", encoding="utf-8")
    assert sorted(unset_parameters(package, tmp_path)) == ["probe.K.m.b", "probe.f.c",
                                                            "probe.f.d"]
    assert sorted(unset_fields(package, tmp_path)) == ["probe.D.u"]


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
    "rxsim._transforms": ("the window transforms of the last channel with a request's "
                          "largest window FFT, kept once its key repeats, so a channel "
                          "replayed with several waveforms is transformed twice",
                          "one key and at most one channel's transforms, 16 N M nfft "
                          "bytes, freed with the channel"),
    "rxsim._kept_lock": ("orders the updates of rxsim._noise and rxsim._transforms; a "
                         "forked child replaces it", "one lock"),
    "scenario.littoral_dem": ("the built-in littoral site, which no seed or scale changes, "
                              "built on first use and shared by every preset",
                              "one site: two 667 x 667 rasters of 8-byte cells (7.1 MB) "
                              "plus the elevation grid's LOS bounds (0.45 MB)"),
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
    package rebinds or mutates, and of every memoized module-level
    function."""
    found = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = _module_names(tree)
        found.update(f"{path.stem}.{node.name}" for node in tree.body
                     if isinstance(node, _SCOPES[:2])
                     and _decorated(node, "cache", "lru_cache"))

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


def test_the_process_state_rule_sees_a_memoized_function(tmp_path):
    """The rule flags a module-level function that `functools.cache` or
    `lru_cache` decorates, bare or called, with or without the prefix,
    and not another decorator or a memoized function nested in another."""
    (tmp_path / "probe.py").write_text(
        "import contextlib\nimport functools\nfrom functools import cache, lru_cache\n"
        "@functools.cache\ndef a(): ...\n"
        "@cache\ndef b(): ...\n"
        "@functools.lru_cache\ndef c(): ...\n"
        "@functools.lru_cache(maxsize=4)\ndef d(x): ...\n"
        "@lru_cache()\ndef e(x): ...\n"
        "@contextlib.contextmanager\ndef plain(): yield\n"
        "def outer():\n"
        "    @cache\n"
        "    def inner(): ...\n"
        "    return inner\n", encoding="utf-8")
    assert sorted(process_state(tmp_path)) == ["probe.a", "probe.b", "probe.c", "probe.d",
                                               "probe.e"]
