"""One hypothesis profile for the suite: no per-example deadline (the exact
kernels vary in cost with their inputs) and a fixed example sequence, so a
property test fails or passes the same way on every run.  And the fixture
that a test stubbing ``pfaffians._pf`` takes."""

import pytest
from hypothesis import settings

settings.register_profile("aci3", deadline=None, derandomize=True)
settings.load_profile("aci3")


@pytest.fixture
def fresh_plans():
    """An empty cache of generic pfaffians (``pfaffians._plan``), emptied
    again afterwards: a stubbed ``_pf`` is reached only by a plan built
    while it is in place, and no plan it built outlives the test."""
    from aci3 import pfaffians
    pfaffians._plan.cache_clear()
    yield
    pfaffians._plan.cache_clear()
