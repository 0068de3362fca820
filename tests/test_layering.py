"""Package modules talk to each other through public names only."""

import ast
import pathlib

import toricount

PACKAGE = pathlib.Path(toricount.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _private_imports(path):
    """(line, module, name) for each underscore-prefixed name imported from the package."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "toricount":
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                out.append((node.lineno, module, alias.name))
    return out


def test_modules_found():
    assert len(MODULES) > 5


def test_no_private_names_imported_across_modules():
    offenders = {
        path.name: found for path in MODULES if (found := _private_imports(path))
    }
    assert offenders == {}


def test_public_exports_resolve():
    missing = [name for name in toricount.__all__ if not hasattr(toricount, name)]
    assert missing == []
