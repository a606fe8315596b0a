"""The public names: every export in ``motionsample.__all__`` resolves."""

import motionsample


def test_every_export_resolves():
    assert [name for name in motionsample.__all__ if not hasattr(motionsample, name)] == []
    assert len(set(motionsample.__all__)) == len(motionsample.__all__)


def test_star_import():
    namespace = {}
    exec("from motionsample import *", namespace)
    assert set(motionsample.__all__) <= namespace.keys()
