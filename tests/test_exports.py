"""The package's exported surface: every name in `svtangent.__all__`
resolves, and `from svtangent import *` binds each of them."""

import svtangent


def test_every_exported_name_resolves():
    assert len(set(svtangent.__all__)) == len(svtangent.__all__)
    for name in svtangent.__all__:
        assert getattr(svtangent, name, None) is not None, name


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from svtangent import *", namespace)
    for name in svtangent.__all__:
        assert namespace[name] is getattr(svtangent, name), name
