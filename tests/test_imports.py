"""A clean install of the declared dependencies can import everything.

Every top-level module imported anywhere under ``src``, ``tests``,
``examples``, ``benchmarks`` and ``perfbench`` must be stdlib,
first-party, or declared in ``pyproject.toml`` (a runtime dependency or
the ``test`` extra).  CI installs exactly those, so an undeclared import
fails there before any test runs.

Every ``repro.*`` module imported there must also be a file under
``src/repro``, and in a git checkout a file that git tracks: a package
that exists only in one working tree (an ignore rule once matched
``src/repro/dist/``) fails here rather than on the next clean clone.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "examples", "benchmarks", "perfbench")


def _declared() -> set[str]:
    """Import names of the runtime dependencies and the test extra."""
    text = (ROOT / "pyproject.toml").read_text()
    names = set()
    for key in ("dependencies", "test"):
        match = re.search(rf"^{key}\s*=\s*\[(.*?)\]", text, re.M | re.S)
        assert match, f"pyproject.toml declares no {key} list"
        for requirement in re.findall(r'"([^"]+)"', match.group(1)):
            name = re.split(r"[\s\[<>=!~;]", requirement, maxsplit=1)[0]
            names.add(name.lower().replace("-", "_"))
    return names


def _first_party() -> set[str]:
    """Project packages, plus the ``benchmarks/`` modules that import
    each other as siblings (``artifact``, ``perf_gate``, ``trend``)."""
    src = ROOT / "src"
    names = {p.name for p in src.iterdir() if (p / "__init__.py").exists()}
    names |= {"tests", "benchmarks", "perfbench"}
    names |= {p.stem for p in (ROOT / "benchmarks").glob("*.py")}
    return names


def _imports():
    """``(path, dotted module name)`` of every absolute import."""
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        yield path, alias.name
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    yield path, node.module


def _top(name: str) -> str:
    return name.partition(".")[0]


def test_every_import_is_stdlib_first_party_or_declared():
    allowed = set(sys.stdlib_module_names) | _first_party() | _declared()
    undeclared = sorted(
        {
            f"{path.relative_to(ROOT)}: {_top(name)}"
            for path, name in _imports()
            if _top(name) not in allowed
        }
    )
    assert not undeclared, (
        "imports neither stdlib, first-party nor declared in "
        "pyproject.toml:\n" + "\n".join(undeclared)
    )


def test_the_guard_sees_the_declared_dependencies():
    # The scan must actually find the declared third-party imports;
    # an empty scan would pass the guard vacuously.
    found = {_top(name) for _, name in _imports()}
    assert {"numpy", "pytest", "hypothesis"} <= found
    assert {"numpy", "pytest", "hypothesis"} <= _declared()


def _unresolved_repro_modules(has_file) -> list[str]:
    """``repro.*`` imports for which ``has_file`` accepts no defining file.

    ``has_file`` takes a path relative to the repo root, in POSIX form;
    a module ``repro.a.b`` is defined by ``src/repro/a/b.py`` or
    ``src/repro/a/b/__init__.py``.
    """
    importers: dict[str, set[str]] = {}
    for path, name in _imports():
        if _top(name) == "repro":
            importers.setdefault(name, set()).add(
                path.relative_to(ROOT).as_posix()
            )
    unresolved = []
    for name in sorted(importers):
        base = "src/" + name.replace(".", "/")
        if not (has_file(base + ".py") or has_file(base + "/__init__.py")):
            first = sorted(importers[name])
            more = f" and {len(first) - 1} more" if len(first) > 1 else ""
            unresolved.append(f"{name} (imported by {first[0]}{more})")
    return unresolved


def test_every_repro_import_resolves_to_a_source_file():
    missing = _unresolved_repro_modules(lambda rel: (ROOT / rel).is_file())
    assert not missing, (
        "repro modules imported but not under src/repro:\n"
        + "\n".join(missing)
    )


@pytest.mark.skipif(
    not (ROOT / ".git").exists(),
    reason="not a git checkout (no .git), so there is no index to check",
)
def test_every_repro_import_is_tracked_by_git():
    listed = subprocess.run(
        ["git", "ls-files", "-z", "--", "src/repro"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout
    tracked = set(listed.split("\0"))
    untracked = _unresolved_repro_modules(tracked.__contains__)
    assert not untracked, (
        "repro modules imported but not tracked by git (ignored or never "
        "added, so a clean clone lacks them):\n" + "\n".join(untracked)
    )


def test_the_repro_guard_sees_the_repro_imports():
    # An empty scan would pass both repro guards vacuously.
    names = {name for _, name in _imports() if _top(name) == "repro"}
    assert {"repro.dist", "repro.dist.scaling", "repro.engine"} <= names


REFERENCE = ROOT / "src" / "repro" / "cachesim" / "lru.py"


def _modules_imported_by(path: Path) -> set[str]:
    """Every module a file under ``src`` names in an import.

    Relative imports are resolved against the file's package, and
    ``from package import name`` counts ``package.name`` as well, since
    the name may be a submodule.
    """
    package = path.relative_to(ROOT / "src").with_suffix("").parts[:-1]
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) + 1 - node.level]
            if node.level == 0:
                base = ()
            module = ".".join(base + tuple(filter(None, [node.module])))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_only_tests_and_benchmarks_import_the_reference_replay():
    # The per-access reference is slow on purpose; a library import
    # would put it back on a replay path.
    importers = sorted(
        path.relative_to(ROOT).as_posix()
        for path in (ROOT / "src" / "repro").rglob("*.py")
        if path != REFERENCE
        and "repro.cachesim.lru" in _modules_imported_by(path)
    )
    assert not importers, (
        "library modules import the reference replay repro.cachesim.lru:\n"
        + "\n".join(importers)
    )
    # The scan resolves absolute, relative and submodule imports.
    driver = _modules_imported_by(REFERENCE.with_name("driver.py"))
    assert "repro.cachesim.hierarchy" in driver
    assert "repro.cachesim.hierarchy" in _modules_imported_by(REFERENCE)
