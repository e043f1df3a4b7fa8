"""The public namespace of the package."""

import confadapt


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from confadapt import *", namespace)
    for name in confadapt.__all__:
        assert hasattr(confadapt, name), name
        assert namespace[name] is getattr(confadapt, name), name
