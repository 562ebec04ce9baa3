"""Shared fixtures."""

import pytest

from polyeff import finmodel as fm


@pytest.fixture
def full_enumeration(monkeypatch):
    """While the test runs, a model registers every algebra that
    ``fm.enumerate_algebras`` lists instead of one per isomorphism class,
    since every algebra is its own class key: the oracle of the
    representatives model."""
    monkeypatch.setattr(fm, "canonical_form", lambda alg: alg)
