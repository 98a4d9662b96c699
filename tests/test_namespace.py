"""The package namespace is loaded lazily (PEP 562): ``import groupoids``
imports no submodule, and each exported name loads its module on first use."""

import importlib
import subprocess
import sys

import pytest

import groupoids


def _fresh(code: str) -> str:
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60)
    return done.stdout


def test_a_bare_import_loads_no_submodule():
    out = _fresh("import sys, groupoids\n"
                 "print(sorted(m for m in sys.modules if m.startswith('groupoids.')))")
    assert out == "[]\n"


def test_a_name_loads_only_its_module_and_is_kept():
    out = _fresh("import sys, groupoids\n"
                 "groupoids.cyclic_group\n"
                 "print('cyclic_group' in vars(groupoids),"
                 " 'groupoids.grouptable' in sys.modules, 'groupoids.affine' in sys.modules)")
    assert out == "True True False\n"


def test_submodules_are_attributes_after_a_bare_import():
    out = _fresh("import groupoids\nprint(groupoids.core.__name__, groupoids.affine.__name__)")
    assert out == "groupoids.core groupoids.affine\n"


@pytest.mark.parametrize("name", [n for n in groupoids.__all__ if n != "__version__"])
def test_every_name_is_the_object_of_its_home_module(name):
    value = getattr(groupoids, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("groupoids.")
    assert getattr(home, name) is value


def test_dir_lists_every_exported_name():
    assert set(groupoids.__all__) <= set(dir(groupoids))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from groupoids import *", namespace)
    assert set(groupoids.__all__) <= set(namespace)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError) as info:
        groupoids.nope
    assert str(info.value) == "module 'groupoids' has no attribute 'nope'"
