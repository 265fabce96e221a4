"""The public ``entity_pulse`` namespace."""

import entity_pulse as ep


def test_every_public_name_resolves_once():
    assert len(ep.__all__) == len(set(ep.__all__))
    missing = [name for name in ep.__all__ if not hasattr(ep, name)]
    assert missing == []
