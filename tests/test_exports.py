import foqc


def test_every_exported_name_resolves():
    missing = [name for name in foqc.__all__ if not hasattr(foqc, name)]
    assert missing == []
    assert len(set(foqc.__all__)) == len(foqc.__all__)
    namespace: dict = {}
    exec("from foqc import *", namespace)
    assert set(foqc.__all__) <= set(namespace)
