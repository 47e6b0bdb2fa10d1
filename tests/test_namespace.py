"""The package namespace: each module's ``__all__`` plus the exception
classes of ``errors``, and nothing else."""

import ast
import functools
import pathlib
import types

import pytest

import pelliptic
from pelliptic import certify, eigen, elliptic, errors, fourier, qtheta, quadrature

MODULES = (quadrature, elliptic, qtheta, eigen, fourier, certify)
ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "pelliptic"
# public names that no package code or demo calls, kept as a layer of the
# chain: w_p between K_p and sn_p
UNREACHED_BY_DESIGN = {"wp"}
# private functions that no package code calls, kept for a planned caller:
# the L^2 norm of sn_p trajectories (ROADMAP direction 6)
PRIVATE_UNCALLED_BY_DESIGN = {"_sn_l2"}
EXCEPTIONS = {
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, Exception)
}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_is_reexported(module):
    for name in module.__all__:
        assert getattr(pelliptic, name) is getattr(module, name), name


def test_no_many_twins():
    # one function per quantity, taking a float or an array
    for module in MODULES:
        assert not [name for name in module.__all__ if name.endswith("_many")]


def test_no_public_cache():
    # an lru_cache hashes its raw arguments before the function's checks
    # run, so a public name is a plain function that checks, then asks a
    # private cache
    for module in MODULES:
        for name in module.__all__:
            assert not isinstance(getattr(module, name), functools._lru_cache_wrapper), name


def test_exceptions_are_reexported():
    assert len(EXCEPTIONS) == 7
    for name in EXCEPTIONS:
        assert getattr(pelliptic, name) is getattr(errors, name), name


def test_namespace_holds_nothing_else():
    listed = [name for module in MODULES for name in module.__all__]
    # a name in two lists would be bound to whichever module came last
    assert len(listed) == len(set(listed))
    public = {
        name
        for name in dir(pelliptic)
        if not name.startswith("_")
        and not isinstance(getattr(pelliptic, name), types.ModuleType)
    }
    assert public - set(listed) - EXCEPTIONS == set()
    assert isinstance(pelliptic.__version__, str)


def _names_used(paths):
    """Every identifier read as a name or an attribute in the files."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_is_reached_outside_the_tests():
    # a name in an __all__ is public because the package, its CLI or a demo
    # uses it; one that only tests reach is dead surface
    used = _names_used([*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py")])
    listed = {name for module in MODULES for name in module.__all__}
    assert listed - used - UNREACHED_BY_DESIGN == set()


def test_every_private_function_has_a_caller_in_the_package():
    # the private counterpart: a module-level _name def or class that no
    # module of the package refers to is dead code, even if tests run it
    paths = list(PACKAGE.glob("*.py"))
    private = {
        node.name
        for path in paths
        for node in ast.parse(path.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }
    assert private - _names_used(paths) - PRIVATE_UNCALLED_BY_DESIGN == set()
