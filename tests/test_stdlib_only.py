"""The runtime needs only the standard library: every absolute import in
src/charlie names a standard-library module (relative imports stay inside
the package), and every module parses as the Python 3.10 grammar that
requires-python declares.  Every name a module-level import binds is read
somewhere in its module.  Importing the CLI loads neither dataclasses nor
inspect: together they were a fifth of the cold start, and no computation
needs them."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "charlie").glob("*.py"))


def _absolute_imports(path: Path) -> set:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_runtime_imports_only_the_standard_library():
    imported = set().union(*map(_absolute_imports, SOURCES))
    assert imported, "no imports found: the source glob is wrong"
    assert sorted(imported - sys.stdlib_module_names) == []


def test_every_module_level_import_is_read():
    unused = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        bound = {(alias.asname or alias.name).partition(".")[0]: node.lineno
                 for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__" for alias in node.names}
        read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                and isinstance(n.ctx, ast.Load)}
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in read]
    assert not unused, f"imported but never read: {', '.join(sorted(unused))}"


def test_sources_parse_with_the_declared_python_floor():
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert 'requires-python = ">=3.10"' in pyproject
    for path in SOURCES:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_cli_imports_without_dataclasses_or_inspect():
    # a fresh interpreter, since pytest itself loads both modules
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import sys, charlie.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_a_command_loads_neither_argparse_nor_gettext_nor_locale():
    # argparse's first gettext call imported locale, a quarter of a small run
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = ("import io, sys, contextlib, charlie.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            "    code = charlie.cli.run(['charalg', '--equation', 'sinh', '--degree', '3', "
            "'--order', '7'])\n"
            "print(code, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "0 []\n"
