import importlib
import pkgutil

import pytest

import groupoids

MODULES = sorted(m.name for m in pkgutil.iter_modules(groupoids.__path__, "groupoids.")
                 if m.name != "groupoids.__main__")


@pytest.mark.parametrize("name", ["groupoids", *MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
