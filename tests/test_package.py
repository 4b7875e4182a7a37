"""The package's top-level API."""

import eelm


def test_every_exported_name_resolves():
    assert len(eelm.__all__) == len(set(eelm.__all__)) == 28
    for name in eelm.__all__:
        assert getattr(eelm, name) is not None, name
