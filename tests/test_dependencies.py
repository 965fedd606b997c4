"""Every third-party module that the tests import is declared in
pyproject.toml, so that `pip install ".[test]"` installs all of them, and the
program (src/ and scripts/) imports only its runtime dependencies, so that
`pip install .` installs all of those."""

import ast
import importlib.metadata
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _distribution(requirement):
    """The normalized distribution name of a requirement such as 'numpy>=1.24'."""
    return re.split(r"[\s<>=!~;\[(]", requirement, maxsplit=1)[0].lower().replace("-", "_")


def _undeclared(paths, own, requirements):
    """'file: module' for each top-level module that an absolute import of
    one of the paths names and that is neither in the standard library nor
    in own nor installed by one of the requirements."""
    declared = set(map(_distribution, requirements))
    provided_by = importlib.metadata.packages_distributions()
    undeclared = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for top in {module.split(".")[0] for module in modules}:
                if top in sys.stdlib_module_names or top in own:
                    continue
                if not declared & set(map(_distribution, provided_by.get(top, [top]))):
                    undeclared.add(f"{path.name}: {top}")
    return undeclared


def test_every_third_party_import_of_the_tests_is_declared():
    test_files = sorted((ROOT / "tests").glob("*.py"))
    assert not _undeclared(test_files, {"segsum"} | {path.stem for path in test_files},
                           PROJECT["dependencies"] + PROJECT["optional-dependencies"]["test"])


def test_the_program_imports_only_its_runtime_dependencies():
    # a test extra such as hypothesis or mpmath is not installed with the program
    program = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scripts").glob("*.py"))
    assert program
    assert not _undeclared(program, {"segsum"}, PROJECT["dependencies"])
