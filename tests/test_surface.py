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
