"""Shared test set-up."""

import pytest

from oklab.additivity import compare_additive_bodies


@pytest.fixture(autouse=True)
def undecided_pairs():
    """Each test starts with no additivity verdict memoised, so a test that
    watches how a pair is decided sees it decided, not read back from the
    memo an earlier test filled."""
    compare_additive_bodies.cache_clear()
