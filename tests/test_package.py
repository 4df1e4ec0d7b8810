import ast
import importlib
import pkgutil

import pytest

import skofbsde

_MODULES = [skofbsde] + [importlib.import_module(f"skofbsde.{info.name}")
                         for info in pkgutil.iter_modules(skofbsde.__path__)]


@pytest.mark.parametrize("mod", _MODULES, ids=lambda mod: mod.__name__)
def test_exported_names_resolve(mod):
    # a removed function must leave no stale name in any __all__
    names = getattr(mod, "__all__", [])
    assert [n for n in names if not hasattr(mod, n)] == []
    assert len(set(names)) == len(names)


def _imported_modules(mod) -> set:
    """The package modules that ``mod``'s source imports, at module level
    or inside a function, relatively or by the package name; a name
    imported from the package that is not a module is the package's."""
    package = skofbsde.__name__
    submodules = {info.name for info in pkgutil.iter_modules(skofbsde.__path__)}
    found = set()
    for node in ast.walk(ast.parse(open(mod.__file__).read())):
        if isinstance(node, ast.Import):
            parts = [a.name.split(".") for a in node.names]
            found |= {p[1] if len(p) > 1 else package
                      for p in parts if p[0] == package}
        elif isinstance(node, ast.ImportFrom):
            base = node.module.split(".") if node.module else []
            if node.level == 0:
                if not base or base[0] != package:
                    continue
                base = base[1:]
            if base:
                found.add(base[0])
            else:
                found |= {a.name if a.name in submodules else package
                          for a in node.names}
    return found - {mod.__name__.rpartition(".")[2]}


def test_module_imports_are_acyclic():
    # no module of the package imports, even inside a function, a module
    # that imports it back, directly or through others
    graph = {m.__name__.rpartition(".")[2]: _imported_modules(m)
             for m in _MODULES}
    # module-level and function-level imports are both seen
    assert {"coeffs", "errors", "fbsde", "field"} <= graph["embed"]
    assert {"_floattext", "errors"} == graph["field"]
    done, path = set(), []

    def visit(node):
        if node in path:
            pytest.fail("import cycle: "
                        + " -> ".join(path[path.index(node):] + [node]))
        if node in done:
            return
        path.append(node)
        for nxt in sorted(graph[node]):
            visit(nxt)
        path.pop()
        done.add(node)

    for node in sorted(graph):
        visit(node)
