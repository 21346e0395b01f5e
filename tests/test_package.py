"""The package's export list."""

import cdo_compat


def test_every_exported_name_resolves_once():
    names = cdo_compat.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(cdo_compat, n)] == []
