"""Package modules talk to each other through public names only, import only at
module level, and need no numpy, scipy or mpmath."""

import ast
import os
import pathlib
import subprocess
import sys

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


def _imports_of(path, roots):
    """(line, module) for each import of a module under roots, local imports included."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.split(".")[0] in roots:
                out.append((node.lineno, name))
    return out


def _nested_imports(path):
    """(line, module) for each import below the module's top level."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = {id(node) for node in tree.body}
    return [
        (node.lineno, getattr(node, "module", None) or node.names[0].name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]


def _is_split_callers(path):
    """(enclosing function, line) for each .is_split() call in the module."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == "is_split":
                out.append((func, child.lineno))
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return out


def _names_of(path, name):
    """Lines where the module names `name`: a variable, an attribute or an import."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id == name)
        or (isinstance(node, ast.Attribute) and node.attr == name)
        or (isinstance(node, ast.ImportFrom) and any(a.name == name for a in node.names))
    ]


def test_modules_found():
    assert len(MODULES) > 5


def test_no_private_names_imported_across_modules():
    offenders = {
        path.name: found for path in MODULES if (found := _private_imports(path))
    }
    assert offenders == {}


def test_package_imports_neither_numpy_nor_scipy():
    # the package has no runtime dependency; the tests bring numpy and scipy
    offenders = {
        path.name: found
        for path in MODULES
        if (found := _imports_of(path, ("numpy", "scipy")))
    }
    assert offenders == {}


def test_package_imports_no_mpmath():
    # tau is certified in exact integer arithmetic; mpmath is a test oracle only
    offenders = {
        path.name: found for path in MODULES if (found := _imports_of(path, ("mpmath",)))
    }
    assert offenders == {}


def test_cli_import_leaves_mpmath_unloaded():
    code = "import sys, toricount.cli; sys.exit('mpmath' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


def test_package_imports_only_at_module_level():
    offenders = {
        path.name: found for path in MODULES if (found := _nested_imports(path))
    }
    assert offenders == {}


def test_only_require_split_and_theta_read_is_split():
    # one scope boundary: Fan.require_split refuses a nonsplit fan for every
    # split-only entry, and theta reports alpha and beta without tau
    callers = {(path.name, func) for path in MODULES for func, _ in _is_split_callers(path)}
    assert callers == {("fan.py", "require_split"), ("tamagawa.py", "theta")}


def test_only_arith_names_the_sieve_cap():
    # arith refuses every table past SIEVE_CAP as it allocates it, so no
    # caller restates the limit
    offenders = {
        path.name: found
        for path in MODULES
        if path.name != "arith.py" and (found := _names_of(path, "SIEVE_CAP"))
    }
    assert offenders == {}


def test_public_exports_resolve():
    missing = [name for name in toricount.__all__ if not hasattr(toricount, name)]
    assert missing == []
