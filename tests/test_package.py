"""The package's public names."""

import socleq


def test_every_exported_name_resolves_once():
    names = socleq.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(socleq, name), name
