"""The package namespace: each module's ``__all__`` plus the exception
classes of ``errors``, and nothing else."""

import types

import pytest

import pelliptic
from pelliptic import certify, eigen, elliptic, errors, fourier, qtheta, quadrature

MODULES = (quadrature, elliptic, qtheta, eigen, fourier, certify)
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


def test_exceptions_are_reexported():
    assert len(EXCEPTIONS) == 8
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
