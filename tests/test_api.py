import qsverify


def test_every_exported_name_resolves():
    missing = [name for name in qsverify.__all__ if not hasattr(qsverify, name)]
    assert missing == []
    assert len(set(qsverify.__all__)) == len(qsverify.__all__)
