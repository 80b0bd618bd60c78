"""Static checks of the package's imports (no Ray, no imports run).

Many imports in ``image_deduper_ray`` sit inside functions, often on a
fallback path that only runs past a size cap. A dangling one would fail
only when that path runs, so each ``from .x import y`` is checked
statically: the target module must exist and define ``y``. And every
module must be imported, directly or in turn, from the scan's entry
modules: code the scan does not use is deleted, not kept up to date.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PKG = Path(__file__).resolve().parent.parent / "image_deduper_ray"


def _module_file(parts: list[str]) -> Path | None:
    """The file of package-relative module ``parts`` (a package's
    ``__init__.py``), or None."""
    base = PKG.joinpath(*parts)
    for f in (base.with_suffix(".py"), base / "__init__.py"):
        if f.is_file():
            return f
    return None


def _top_level_names(f: Path) -> set[str]:
    names: set[str] = set()
    for node in ast.parse(f.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((a.asname or a.name).split(".")[0]
                         for a in node.names)
    return names


def _relative_imports() -> list[tuple[str, list[str], str]]:
    """(importing module, target module parts, imported name) for every
    relative import, at any nesting depth."""
    out = []
    for f in sorted(PKG.rglob("*.py")):
        pkg_parts = list(f.relative_to(PKG).parent.parts)
        for node in ast.walk(ast.parse(f.read_text())):
            if not isinstance(node, ast.ImportFrom) or not node.level:
                continue
            up = node.level - 1
            assert up <= len(pkg_parts), f"{f}: import above the package"
            target = pkg_parts[:len(pkg_parts) - up]
            if node.module:
                target += node.module.split(".")
            rel = str(f.relative_to(PKG.parent))
            out += [(rel, target, a.name) for a in node.names]
    return out


IMPORTS = _relative_imports()


def test_package_has_relative_imports():
    assert len(IMPORTS) > 10


@pytest.mark.parametrize(
    "importer,target,name", IMPORTS,
    ids=[f"{i}:{'.'.join(t)}.{n}" for i, t, n in IMPORTS])
def test_relative_import_resolves(importer, target, name):
    f = _module_file(target)
    assert f is not None, f"{importer}: no module {'.'.join(target)}"
    if _module_file(target + [name]) is not None:    # a submodule
        return
    assert name in _top_level_names(f), \
        f"{importer}: {'.'.join(target)} defines no {name}"


# the modules the scan and its CLI start from; the package ``__init__``
# is ``()``
SCAN_ROOTS = [(), ("__main__",), ("pipelines", "dedup"),
              ("pipelines", "oracle"), ("corpus",)]


def _imported_modules(f: Path) -> set[tuple[str, ...]]:
    """The package modules ``f`` imports, relatively or by their
    ``image_deduper_ray.`` name, at any nesting depth."""
    here = list(f.relative_to(PKG).parent.parts)
    out = set()
    for node in ast.walk(ast.parse(f.read_text())):
        if isinstance(node, ast.Import):
            out.update(tuple(a.name.split(".")[1:]) for a in node.names
                       if a.name.split(".")[0] == PKG.name)
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        mod = (node.module or "").split(".")
        if node.level:
            base = here[:len(here) - node.level + 1] + [m for m in mod if m]
        elif mod[0] == PKG.name:
            base = mod[1:]
        else:
            continue
        out.add(tuple(base))
        out.update(tuple(base + [a.name]) for a in node.names
                   if _module_file(base + [a.name]) is not None)
    return out


def test_every_module_is_reachable_from_the_scan():
    seen: set[tuple[str, ...]] = set()
    todo = list(SCAN_ROOTS)
    while todo:
        m = todo.pop()
        if m in seen:
            continue
        seen.add(m)
        f = _module_file(list(m))
        assert f is not None, f"no module {'.'.join(m)}"
        todo += _imported_modules(f)
    modules = {f.relative_to(PKG).with_suffix("").parts
               for f in PKG.rglob("*.py") if f.name != "__init__.py"}
    assert sorted(".".join(m) for m in modules - seen) == []
