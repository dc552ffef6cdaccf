"""Every exported name resolves: a deletion that leaves a stale entry in an
``__all__`` fails here, not at a user's import."""

import importlib

import pytest

MODULES = ["fracburgers", "fracburgers.bounds", "fracburgers.fode", "fracburgers.frac_ops",
           "fracburgers.impulse", "fracburgers.pde", "fracburgers.specfun"]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, missing
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


def test_package_exports_each_name_once():
    # the package star-imports every module: a name two modules exported would shadow one of them
    import fracburgers

    assert len(set(fracburgers.__all__)) == len(fracburgers.__all__)
