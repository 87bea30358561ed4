import pytest

from qsverify import certificates


def find_certificate_memos() -> list:
    """Every memo in ``qsverify.certificates``: each callable with a
    ``cache_clear`` and a ``cache_info``, as ``functools`` memos have."""
    return [
        value for value in vars(certificates).values()
        if callable(getattr(value, "cache_clear", None))
        and callable(getattr(value, "cache_info", None))
    ]


def clear_certificate_caches() -> None:
    for memo in find_certificate_memos():
        memo.cache_clear()


@pytest.fixture
def certificate_memos() -> list:
    return find_certificate_memos()


@pytest.fixture(autouse=True)
def fresh_certificate_caches():
    """Start every test with empty certificate memos, so no test depends on
    the order tests run in.  Yields the clearing function for tests that
    must also recompute between two runs inside one test."""
    clear_certificate_caches()
    yield clear_certificate_caches
