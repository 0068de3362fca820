import pytest

from toricount.corpus import fan

SPLIT_NAMES = ("p1", "p2", "p1xp1", "hirzebruch1", "dp6")
NONSPLIT_NAMES = ("p1-norm-one", "p1xp1-swap", "p2-threecycle")


@pytest.fixture(autouse=True)
def empty_torsor_contexts():
    """Start each test with no stored torsor context.

    A context stored by an earlier test would skip the table allocations
    that arith.SIEVE_CAP refuses, and the memos that the memo-size tests
    shrink, so the store is emptied and test order changes no outcome.
    """
    from toricount import counting

    counting._context_slot.cache_clear()


@pytest.fixture(scope="session")
def corpus():
    from toricount.corpus import NAMES

    return {name: fan(name) for name in NAMES}


@pytest.fixture(scope="session")
def p1():
    return fan("p1")


@pytest.fixture(scope="session")
def p2():
    return fan("p2")


@pytest.fixture(scope="session")
def p1xp1():
    return fan("p1xp1")


@pytest.fixture(scope="session")
def dp6():
    return fan("dp6")


@pytest.fixture(scope="session")
def hirzebruch1():
    return fan("hirzebruch1")
