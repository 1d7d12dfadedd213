"""Run every module's docstring examples, and keep every check in the
package out of ``assert`` statements, which ``python -O`` strips."""

import ast
import doctest
import importlib
import pathlib

import pytest

import permpaths

MODULES = [
    "permpaths.permutations",
    "permpaths.paths",
    "permpaths.series",
    "permpaths.bijections",
    "permpaths.formulas",
    "permpaths.oracle",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module)
    assert result.attempted > 0
    assert result.failed == 0


def test_no_assert_in_package():
    sources = sorted(pathlib.Path(permpaths.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
