"""Repo hygiene gates: generated artifacts must never be tracked, and
``src/`` exports only what production code uses.

PR 8 accidentally committed 89 ``__pycache__/*.pyc`` files; this tier-1
test makes that class of mistake fail CI instead of slipping through
review.  It asks git for the tracked file list (the working tree will
legitimately contain bytecode), so it only runs inside a git checkout
and skips in tarball exports.  The export gate reads the sources alone:
every name in an ``__all__`` under ``src/repro`` needs a use in
``src/``, ``examples/``, ``tools/``, ``benchmarks/`` or ``perfbench/``.
"""

import ast
import fnmatch
import re
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: Tracked paths matching any of these are generated artifacts, not source.
FORBIDDEN_PATTERNS = (
    "*/__pycache__/*",
    "__pycache__/*",
    "*.pyc",
    "*.pyo",
    "*/.pytest_cache/*",
    "*/.hypothesis/*",
    "*/.benchmarks/*",
    "*.so",
    "src/repro/sim/_build/*",
)


def _tracked_files():
    probe = subprocess.run(["git", "ls-files", "-z"], cwd=REPO_ROOT,
                           capture_output=True)
    if probe.returncode != 0:
        pytest.skip("not a git checkout (tarball export)")
    return [p for p in probe.stdout.decode().split("\0") if p]


def test_no_generated_artifacts_tracked():
    tracked = _tracked_files()
    assert tracked, "git ls-files returned nothing for a live checkout"
    offenders = sorted(
        path for path in tracked
        if any(fnmatch.fnmatch(path, pat) for pat in FORBIDDEN_PATTERNS))
    assert offenders == [], (
        f"{len(offenders)} generated file(s) are tracked by git "
        f"(e.g. {offenders[:5]}); git rm --cached them — .gitignore "
        f"already covers these patterns")


def test_gitignore_covers_cache_patterns():
    """The root .gitignore must keep covering the cache directories, so
    the artifacts this gate polices cannot re-enter the index by a plain
    ``git add .``."""
    gitignore = REPO_ROOT / ".gitignore"
    assert gitignore.is_file(), "root .gitignore is missing"
    rules = {line.strip() for line in gitignore.read_text().splitlines()}
    for required in ("__pycache__/", "*.pyc", ".pytest_cache/",
                     ".hypothesis/", ".benchmarks/",
                     "src/repro/sim/_build/"):
        assert required in rules, f".gitignore lost the {required!r} rule"


#: Directories whose code counts as a production use of an exported name.
PRODUCTION_DIRS = ("src", "examples", "tools", "benchmarks", "perfbench")

#: A perfbench boundary target, ``"module:attr"`` or ``"module:Cls.attr"``.
_PERFBENCH_TARGET = re.compile(r"^repro(?:\.\w+)*:([\w.]+)$")

#: Exported names kept although nothing outside tests uses them, with why.
UNUSED_EXPORT_ALLOWLIST: dict[str, str] = {
    "__version__": "package metadata, read by people and packaging tools",
    "GPU": "names a component index of the mapping alphabet for readers "
           "and tests; the platform convention puts the GPU at 0",
    "BIG": "names a component index of the mapping alphabet",
    "LITTLE": "names a component index of the mapping alphabet",
    "run": "every experiment module's entry point; run_experiment calls "
           "it through the EXPERIMENTS registry of imported modules",
}


def _exports():
    """``(module path, name)`` for every ``__all__`` entry under src/repro,
    leaving out entries that name a submodule of the package."""
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not (isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "__all__"
                            for t in node.targets)):
                continue
            for elt in node.value.elts:
                name = elt.value
                here = path.parent
                if (path.name == "__init__.py"
                        and ((here / f"{name}.py").is_file()
                             or (here / name / "__init__.py").is_file())):
                    continue
                yield path.relative_to(REPO_ROOT), name


def _is_module(dotted: str) -> bool:
    """True when ``dotted`` names a module or package under ``src/``."""
    base = REPO_ROOT.joinpath("src", *dotted.split("."))
    return (base.with_suffix(".py").is_file()
            or (base / "__init__.py").is_file())


def _import_source(node: ast.ImportFrom, path: Path) -> str | None:
    """The dotted ``repro`` module a ``from ... import`` reads, with a
    relative import resolved against ``path``'s package; ``None`` for a
    module outside the package."""
    if node.level:
        package = path.parent.relative_to(REPO_ROOT / "src").parts
        parts = list(package[:len(package) - node.level + 1])
        if node.module:
            parts += node.module.split(".")
        return ".".join(parts)
    if node.module and node.module.split(".")[0] == "repro":
        return node.module
    return None


def _bindings(tree: ast.Module, path: Path) -> tuple[dict[str, str], set[str]]:
    """What a file binds: ``names`` maps a bound name to the name it
    binds (a ``repro`` import, possibly aliased, or a module-level
    definition), and ``modules`` holds the names bound to ``repro``
    modules."""
    names: dict[str, str] = {}
    modules: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    modules.add(alias.asname or "repro")
        elif isinstance(node, ast.ImportFrom):
            source = _import_source(node, path)
            for alias in node.names if source else ():
                bound = alias.asname or alias.name
                # A package may rebind a submodule's name to a function
                # of it (``repro.search.random_search``), so a module
                # import binds the name too.
                names[bound] = alias.name
                if _is_module(f"{source}.{alias.name}"):
                    modules.add(bound)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names[node.name] = node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        names[name.id] = name.id
    return names, modules


def _file_uses(source: str, path: Path) -> set[str]:
    """Exported names one production file reads.  A bare name counts
    only where the file binds it by an import or a definition; an
    attribute counts only when its leftmost name is a ``repro`` module
    the file imports (``import repro.serve as serve``, ``from repro.serve
    import fleet``).  Definitions, imports, ``__all__`` strings and
    docstrings are not reads."""
    tree = ast.parse(source, filename=str(path))
    names, modules = _bindings(tree, path)
    used: set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                and node.id in names):
            used.add(names[node.id])
        elif isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in modules:
                used.add(node.attr)
    return used


def _production_uses() -> set[str]:
    """Every exported name production code reads (:func:`_file_uses`),
    plus every perfbench ``"module:attr"`` boundary target."""
    used: set[str] = set()
    for top in PRODUCTION_DIRS:
        for path in (REPO_ROOT / top).rglob("*.py"):
            source = path.read_text()
            used |= _file_uses(source, path)
            if top != "perfbench":
                continue
            for node in ast.walk(ast.parse(source, filename=str(path))):
                if isinstance(node, ast.Constant) and isinstance(node.value,
                                                                 str):
                    match = _PERFBENCH_TARGET.match(node.value)
                    if match:
                        used.update(match.group(1).split("."))
    return used


def test_every_export_has_a_production_use():
    """``src/`` ships only code that a production path runs: a name in an
    ``__all__`` that only tests reach belongs in the tests, or nowhere."""
    used = _production_uses()
    unused = sorted(f"{module}:{name}" for module, name in _exports()
                    if name not in used
                    and name not in UNUSED_EXPORT_ALLOWLIST)
    assert unused == [], (
        f"{len(unused)} exported name(s) have no use outside tests: "
        f"{unused}; delete them, or allowlist one with its reason")


def test_export_uses_follow_bindings():
    """A same-named attribute of some other object, or a bare name the
    file never binds, is not a use; a read through an import binding, a
    module-level definition or an imported ``repro`` module is."""
    source = """
import numpy as np
import repro.serve as serve
from repro.metrics import baseline_result as base
from . import _cext


def helper():
    pass


def run(result, outcome):
    helper()
    base()
    serve.fleet.dispatch()
    _cext.load_solver()
    result.average_throughput
    outcome.normalized_throughput()
    np.starved_mask()
    tree_nodes
"""
    path = REPO_ROOT / "src" / "repro" / "sim" / "example.py"
    assert _file_uses(source, path) == {
        "helper", "baseline_result", "_cext", "fleet", "dispatch",
        "load_solver"}


def test_platform_tables_are_built_only_by_tables_for():
    """``src/`` reaches a platform's solver tables through
    ``repro.sim.tables.tables_for``, their one builder: any other
    ``PlatformTables(...)`` call would bring back a per-call throwaway
    build of tables the process already holds."""
    calls = []
    for path in sorted((REPO_ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name == "PlatformTables":
                    calls.append(str(path.relative_to(REPO_ROOT)))
    assert calls == ["src/repro/sim/tables.py"], calls
