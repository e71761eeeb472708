"""The package's export list."""

import affwhit


def test_all_names_are_exported_once():
    names = affwhit.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(affwhit, n)]
    assert not missing, missing
    ns = {}
    exec("from affwhit import *", ns)
    ns.pop("__builtins__")
    assert set(ns) == set(names)
