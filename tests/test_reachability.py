"""Every module under ``src/repro`` is reached by something that runs.

The roots are the command line (``python -m repro``, i.e. ``repro.cli``),
every script under ``benchmarks/`` and every example under
``examples/`` (``tests/test_examples.py`` runs each one).  The import
graph is read with :mod:`ast`, never by importing: an imported name
resolves through package ``__init__`` re-exports to the module that
defines it, and a package ``__init__``'s own imports reach nothing — a
re-export is not a use.  A module only the tests import is unreached.
"""

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent.parent
REPO = SRC.parent
ROOT_MODULES = ("repro.__main__", "repro.cli")
ROOT_GLOBS = ("benchmarks/**/*.py", "examples/*.py")


def _module_name(src: pathlib.Path, path: pathlib.Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imports(tree: ast.AST, package) -> list:
    """``(module, name, bound)`` triples — ``name`` None for ``import
    module``, ``bound`` the name the importer sees; ``package`` anchors
    relative imports (None: a script, whose relative imports stay in
    its own tree)."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(alias.name, None, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                if package is None:
                    continue
                base = package.split(".")
                base = base[:len(base) - node.level + 1]
                module = ".".join(base + ([module] if module else []))
            found += [(module, alias.name, alias.asname or alias.name)
                      for alias in node.names]
    return found


def unreached(src: pathlib.Path, root_modules, root_files) -> list:
    """Modules under ``src`` (package ``__init__``s aside) that no root
    reaches, sorted."""
    paths = {_module_name(src, path): path for path in src.rglob("*.py")}
    packages = {name for name, path in paths.items()
                if path.name == "__init__.py"}
    refs = {}
    for name, path in paths.items():
        package = name if name in packages else name.rpartition(".")[0]
        refs[name] = _imports(ast.parse(path.read_text(encoding="utf-8")),
                              package)

    def defining(module: str, name) -> set:
        if module not in paths:
            return set()                    # outside the tree
        if name is not None and f"{module}.{name}" in paths:
            return {f"{module}.{name}"}     # a submodule
        if name is None or module not in packages:
            return {module}
        for source, original, bound in refs[module]:
            if bound == name and source != module:
                return defining(source, original)
        return {module}                     # defined in the __init__

    reached = set()
    todo = [module for module in root_modules if module in paths]
    for path in root_files:
        tree = ast.parse(pathlib.Path(path).read_text(encoding="utf-8"))
        for module, name, _ in _imports(tree, None):
            todo += defining(module, name)
    while todo:
        module = todo.pop()
        if module in reached:
            continue
        reached.add(module)
        if module not in packages:
            for source, name, _ in refs[module]:
                todo += defining(source, name)
    return sorted(set(paths) - packages - reached)


def _root_files() -> list:
    return [path for pattern in ROOT_GLOBS for path in REPO.glob(pattern)]


def test_every_module_under_src_is_reached_from_a_root():
    assert unreached(SRC, ROOT_MODULES, _root_files()) == []


def test_a_module_only_a_reexport_names_is_unreached(tmp_path):
    src = tmp_path / "src"
    package = src / "pkg"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text(
        "from .used import run\nfrom .orphan import helper\n")
    (package / "used.py").write_text("def run():\n    return 1\n")
    (package / "orphan.py").write_text("def helper():\n    return 2\n")
    (package / "cli.py").write_text("from . import used\n")
    script = tmp_path / "bench.py"
    script.write_text("from pkg import run\n")
    assert unreached(src, ["pkg.cli"], [script]) == ["pkg.orphan"]
    assert unreached(src, [], [script]) == ["pkg.cli", "pkg.orphan"]
    script.write_text("from pkg import run, helper\n")
    assert unreached(src, ["pkg.cli"], [script]) == []
