import pracsim


def test_every_exported_name_resolves():
    missing = [name for name in pracsim.__all__ if not hasattr(pracsim, name)]
    assert missing == []
    assert len(set(pracsim.__all__)) == len(pracsim.__all__)
