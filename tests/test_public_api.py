import ddrns


def test_every_exported_name_resolves():
    assert len(set(ddrns.__all__)) == len(ddrns.__all__)
    for name in ddrns.__all__:
        assert hasattr(ddrns, name), name


def test_star_import():
    namespace = {}
    exec("from ddrns import *", namespace)
    assert set(ddrns.__all__) <= set(namespace)
