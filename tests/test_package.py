"""The package namespace: what `ezbasis` exports."""

from __future__ import annotations

import types

import ezbasis


def test_all_resolves_without_duplicates():
    assert len(set(ezbasis.__all__)) == len(ezbasis.__all__)
    for name in ezbasis.__all__:
        assert hasattr(ezbasis, name), name


def test_every_public_binding_is_exported():
    bound = {
        name
        for name, value in vars(ezbasis).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert bound <= set(ezbasis.__all__), sorted(bound - set(ezbasis.__all__))
