import slummap


def test_every_exported_name_resolves():
    missing = [name for name in slummap.__all__ if not hasattr(slummap, name)]
    assert missing == []
