"""Fixtures shared across the test modules."""

import bisect

import pytest

import twosym.tuples
from twosym.catalogue import enumerate_admissible

CENSUS_BOUND = 21


@pytest.fixture(scope="session")
def admissible_upto():
    """admissible_upto(bound) lists enumerate_admissible(bound), for any
    bound up to CENSUS_BOUND.  The census is scanned once per session
    and sliced, since the scan is ordered by complexity; tests of the
    enumerator itself call it directly instead."""
    census = list(enumerate_admissible(CENSUS_BOUND))
    ends = [f.upsilon for f in census]

    def upto(bound):
        if bound > CENSUS_BOUND:
            raise ValueError(f"the shared census stops at {CENSUS_BOUND}")
        return census[: bisect.bisect_right(ends, bound)]

    return upto


@pytest.fixture
def admissibility_calls(monkeypatch):
    """A list that records every call of twosym.tuples.admissibility
    made while the test runs (through is_admissible, require_admissible
    and the H1 walk's fallback)."""
    calls = []
    real = twosym.tuples.admissibility

    def counting(f):
        calls.append(f)
        return real(f)

    monkeypatch.setattr(twosym.tuples, "admissibility", counting)
    return calls
