"""The README's library example runs as written; no module keeps an unused
import; only the oracles import scipy, and no module imports the oracles;
the package's public names resolve to their submodules' on first use."""

import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import tlsphonon

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tlsphonon"


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [example] = re.findall(r"^```python\n(.*?)^```$", readme, re.S | re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, "README.md", "exec"), {})
    # the last line compares the closed form with the ensemble integral
    ratio = float(out.getvalue().splitlines()[-1])
    assert abs(ratio - 1.0) < 1e-6


def unused_imports(source: str):
    """Names a module imports and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(path):
    assert unused_imports((PACKAGE / path).read_text(encoding="utf-8")) == []


def test_unused_import_is_found():
    source = "import math\nfrom os import path, sep\nfrom . import x as y\nprint(sep, y)\n"
    assert unused_imports(source) == [(1, "math"), (2, "path")]


def imported_modules(source: str):
    """Dotted names a module imports from: ``import a.b`` gives "a.b", and
    ``from .m import n`` gives ".m" and ".m.n", since n may be a module."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            prefix = base if base.endswith(".") else base + "."
            names.add(base)
            names.update(prefix + alias.name for alias in node.names)
    return names


def package_imports():
    return {path.name: imported_modules(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def test_only_the_oracles_import_scipy():
    importers = [name for name, modules in package_imports().items()
                 if any(module.partition(".")[0] == "scipy" for module in modules)]
    assert importers == ["oracles.py"]


def test_no_module_imports_the_oracles():
    # __init__.py included: importing tlsphonon.cli runs it, so a re-export
    # there would load scipy in every command
    importers = [name for name, modules in package_imports().items()
                 if any("oracles" in module.split(".") for module in modules)]
    assert importers == []


def test_imported_modules_are_found():
    source = ("import scipy.integrate\nfrom . import oracles\n"
              "def f():\n    from .numerics import coth\n")
    assert imported_modules(source) == {"scipy.integrate", ".", ".oracles",
                                        ".numerics", ".numerics.coth"}


def test_package_names_load_on_first_use():
    assert "__version__" in dir(tlsphonon)
    for name, submodule in tlsphonon._SUBMODULE_OF.items():
        module = importlib.import_module(f"tlsphonon.{submodule}")
        assert getattr(tlsphonon, name) is getattr(module, name)
        assert name in dir(tlsphonon)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        tlsphonon.no_such_name
