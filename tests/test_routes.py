"""The three routes stay independent: none borrows another's code."""
import ast
from pathlib import Path

import pytest

import cnomial

ROUTES = ("exact", "circulant", "spectral")
PACKAGE_DIR = Path(cnomial.__file__).parent


def package_imports(source):
    """Names of the cnomial modules that ``source`` imports, package-relative."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("cnomial."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "cnomial" and not module.startswith("cnomial."):
                    continue
                module = module.removeprefix("cnomial")
            module = module.lstrip(".")
            if module:
                names.add(module.split(".")[0])
            else:  # "from . import a, b"
                names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("route", ROUTES)
def test_route_imports_only_params(route):
    # Not another route, and no shared kernel module a route could borrow
    # another's arithmetic through: only the parameter object is common.
    imported = package_imports((PACKAGE_DIR / f"{route}.py").read_text())
    borrowed = imported - {"params"}
    assert not borrowed, f"{route}.py imports {sorted(borrowed)}"


@pytest.mark.parametrize("source, expected", [
    ("from .circulant import multiply", {"circulant"}),
    ("from . import exact, params", {"exact", "params"}),
    ("from cnomial.spectral import eigenvalues", {"spectral"}),
    ("import cnomial.exact", {"exact"}),
    ("import math\nfrom math import sin\nfrom cnomialx import y", set()),
])
def test_import_scan_resolves_every_spelling(source, expected):
    # The guard above has teeth only if the scan sees every spelling.
    assert package_imports(source) == expected
