"""Every third-party module that the tests import is declared in
pyproject.toml, so that `pip install ".[test]"` installs all of them."""

import ast
import importlib.metadata
import pathlib
import re
import sys

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _distribution(requirement):
    """The normalized distribution name of a requirement such as 'numpy>=1.24'."""
    return re.split(r"[\s<>=!~;\[(]", requirement, maxsplit=1)[0].lower().replace("-", "_")


def test_every_third_party_import_of_the_tests_is_declared():
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = set(map(_distribution, project["dependencies"]
                       + project["optional-dependencies"]["test"]))
    test_files = sorted((ROOT / "tests").glob("*.py"))
    own = {"segsum"} | {path.stem for path in test_files}
    provided_by = importlib.metadata.packages_distributions()
    undeclared = set()
    for path in test_files:
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
    assert not undeclared
