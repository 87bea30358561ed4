import pytest

from qsverify import certificates


def clear_certificate_caches() -> None:
    certificates.solve_J.cache_clear()
    certificates._knot_tail.cache_clear()
    certificates._tail_ceiling.cache_clear()


@pytest.fixture(autouse=True)
def fresh_certificate_caches():
    """Start every test with empty certificate memos, so no test depends on
    the order tests run in.  Yields the clearing function for tests that
    must also recompute between two runs inside one test."""
    clear_certificate_caches()
    yield clear_certificate_caches
