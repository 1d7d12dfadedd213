"""Run every module's docstring examples, and keep every check in the
package out of ``assert`` statements, which ``python -O`` strips."""

import ast
import doctest
import importlib
import importlib.util
import pathlib
import types

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


def test_all_lists_the_public_names():
    """``__all__`` names exactly what the package binds, apart from its
    submodules, so a removed function cannot stay listed or exported."""
    bound = {
        name
        for name, value in vars(permpaths).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(permpaths.__all__) == bound


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


def _package_imports(name: str) -> set[str]:
    """The permpaths modules that module ``name`` imports, by any form of
    import statement."""
    path = pathlib.Path(permpaths.__file__).parent / f"{name}.py"
    found = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[1] for a in node.names if a.name.startswith("permpaths.")}
        elif isinstance(node, ast.ImportFrom):
            module = importlib.util.resolve_name("." * node.level + (node.module or ""), "permpaths")
            if module == "permpaths":
                found |= {a.name for a in node.names}
            elif module.startswith("permpaths."):
                found.add(module.split(".")[1])
    return found


@pytest.mark.parametrize(
    "layer, forbidden",
    [
        ("oracle", {"formulas", "series", "bijections", "verify", "cli"}),
        ("bijections", {"oracle", "formulas", "series", "verify"}),
    ],
)
def test_layers_share_no_code_paths(layer, forbidden):
    """The oracle and the bijections compute without the closed forms and
    without each other, as the package docstring says."""
    imports = _package_imports(layer)
    assert "permutations" in imports  # the scan above sees the imports
    assert imports & forbidden == set()
