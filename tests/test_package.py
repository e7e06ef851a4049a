"""The package's public surface."""

import specspan


def test_every_public_name_resolves():
    # a deletion that drops a name still listed in __all__ fails here
    missing = [name for name in specspan.__all__ if not hasattr(specspan, name)]
    assert missing == []
    assert len(set(specspan.__all__)) == len(specspan.__all__)
