"""Package modules talk to each other through public names only, import only at
module level, and need no numpy, scipy or mpmath."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

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


def _method_callers(path, method):
    """(enclosing function, line) for each .<method>() call in the module."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and getattr(child.func, "attr", None) == method:
                out.append((func, child.lineno))
            visit(child, func)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return out


def _code_runners(path):
    """(enclosing function, line) for each call of the builtin compile, exec or eval."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                callee = child.func
                if isinstance(callee, ast.Attribute) and getattr(callee.value, "id", None) == "builtins":
                    callee = ast.Name(callee.attr)
                if isinstance(callee, ast.Name) and callee.id in ("compile", "exec", "eval"):
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


# a command on a bundled fan -> the package modules its fresh process must not load
UNLOADED = {
    ("validate", "dp6"): {"cones", "counting", "dd", "heights", "localdata", "picard", "tamagawa"},
    ("constants", "dp6", "--json"): {"counting", "heights", "localdata"},
    ("count", "p1", "--B-schedule", "100"): {"localdata"},
    ("xfunction", "p2"): {"counting", "heights", "localdata"},
    ("localcheck", "p2", "--prime", "3"): {"counting", "heights", "cones", "tamagawa"},
}

# runs main on its argv; prints [exit code, stdout, the package modules loaded]
_RUN_MAIN = """
import contextlib, io, json, sys
from toricount.cli import main
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = main(sys.argv[1:])
print(json.dumps([code, out.getvalue(), sorted(
    m.split(".", 1)[1] for m in sys.modules if m.startswith("toricount."))]))
"""

# the package alone loads none of its modules, and binds every export on use
_IMPORT_ALL = """
import sys
import toricount
assert not [m for m in sys.modules if m.startswith("toricount.")], sorted(sys.modules)
from toricount import *
for name in toricount.__all__:
    module, attribute = toricount._EXPORTS[name]
    assert globals()[name] is getattr(sys.modules["toricount." + module], attribute), name
"""


def _fresh(code, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60
    )


def test_each_command_runs_alone_and_loads_only_its_modules(capsys):
    # a fresh process imports what its command needs on first use, so a
    # command must not lean on a module that another command imported
    from toricount.cli import main

    for argv, unloaded in UNLOADED.items():
        proc = _fresh(_RUN_MAIN, *argv)
        assert proc.returncode == 0, proc.stderr
        code, out, loaded = json.loads(proc.stdout)
        assert main(list(argv)) == code, argv
        assert capsys.readouterr().out == out, argv
        assert unloaded.isdisjoint(loaded), (argv, loaded)

    proc = _fresh(_IMPORT_ALL)
    assert proc.returncode == 0, proc.stderr
    assert toricount._MODULES == {path.stem for path in MODULES} - {"__init__"}
    with pytest.raises(AttributeError):
        getattr(toricount, "no_such_name")


def test_package_imports_only_at_module_level():
    offenders = {
        path.name: found for path in MODULES if (found := _nested_imports(path))
    }
    assert offenders == {}


def test_only_require_split_and_theta_read_is_split():
    # one scope boundary: Fan.require_split refuses a nonsplit fan for every
    # split-only entry, and theta (its cached worker _theta) reports alpha
    # and beta without tau
    callers = {(path.name, func) for path in MODULES for func, _ in _method_callers(path, "is_split")}
    assert callers == {("fan.py", "require_split"), ("tamagawa.py", "_theta")}


def test_only_fan_reads_failed_checks():
    # one refusal of an invalid fan: ValidationReport.require raises at the
    # first failed check, for the CLI and every library entry alike
    callers = {path.name for path in MODULES if _method_callers(path, "failed")}
    assert callers == {"fan.py"}


def test_only_the_torsor_kernel_builder_compiles_code():
    # code generation lives in one place: counting._torsor_kernel compiles
    # the source it formats from a plan's integers, and nothing else runs
    # generated code
    callers = {(path.name, func) for path in MODULES for func, _ in _code_runners(path)}
    assert callers == {("counting.py", "_torsor_kernel")}


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
