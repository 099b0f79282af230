"""The square roots the class of p supplies, and root_of_minus_one on
composite input."""

import signal
from contextlib import contextmanager

import pytest

from cyclosvp import idealsvp, ntheory
from cyclosvp.errors import DomainError
from cyclosvp.ntheory import class_sqrt, root_of_minus_one, sieve_primes, sqrt_mod
from cyclosvp.pell import pell_from_root, solve_pell

ODD_PRIMES = sieve_primes(5000)[1:]


@contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once the wall time passes seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def tower_pairs(p: int) -> list[int]:
    """The residues a whose root the tower takes mod p: sqrt(-1) for the
    Z[i] witnesses (5 mod 8, and 9 mod 16 at level 1), sqrt(-2) for the
    3 mod 8 witness, sqrt(2) for every Pell solve (p = +-1 mod 8) and
    x^2 = -2 +- sqrt2 for the theta16 roots (7 mod 16)."""
    if p % 8 == 5:
        return [-1]
    if p % 8 == 3:
        return [-2]
    if p % 8 == 1:
        return [2, -1]
    s = sqrt_mod(2, p)
    return [2] + ([s - 2, -s - 2] if p % 16 == 7 else [])


def test_class_sqrt_equals_sqrt_mod_on_every_tower_pair_below_5000():
    checked = 0
    for p in ODD_PRIMES:
        for a in tower_pairs(p):
            assert class_sqrt(a, p) == sqrt_mod(a, p), (a, p)
            checked += 1
    assert checked > len(ODD_PRIMES)


def test_class_sqrt_marks_non_residues_for_3_mod_4():
    for p in ODD_PRIMES:
        if p % 4 == 3:
            for a in range(1, min(p, 40)):
                assert class_sqrt(a, p) == sqrt_mod(a, p), (a, p)


def test_class_sqrt_refuses_roots_the_class_does_not_supply():
    for a, p in ((2, 13), (3, 13), (3, 17), (-2, 17), (5, 41)):
        with pytest.raises(DomainError):
            class_sqrt(a, p)


def test_pell_core_matches_solve_pell_below_5000():
    for p in ODD_PRIMES:
        if p % 8 in (1, 7):
            assert pell_from_root(p, class_sqrt(2, p)) == solve_pell(p)


@pytest.mark.parametrize("p, k", [(21, 1), (45, 1), (1729, 2)])
def test_root_of_minus_one_refuses_composites_in_time(p, k):
    with time_limit(5):
        with pytest.raises(DomainError):
            root_of_minus_one(p, k)


def test_root_of_minus_one_is_the_least_root_for_primes():
    for p in ODD_PRIMES[:200]:
        for k in range(4):
            order = 1 << (k + 1)
            if (p - 1) % order:
                continue
            least = min(r for r in range(1, p) if pow(r, order // 2, p) == p - 1)
            assert root_of_minus_one(p, k) == least, (p, k)


def test_a_9_mod_16_query_finds_the_root_of_minus_one_once(monkeypatch):
    # the zeta8 ideal and sqrt(2) for the Pell core share one rho
    p = 10**199 + 153
    assert p % 16 == 9
    class_sqrt(2, 17)  # any other p held from an earlier query is forgotten
    calls = []

    def counting(q, k):
        calls.append((q, k))
        return root_of_minus_one(q, k)

    monkeypatch.setattr(ntheory, "root_of_minus_one", counting)
    monkeypatch.setattr(idealsvp, "root_of_minus_one", counting)
    res = idealsvp.lambda1_squared(p, 4)
    assert res.witness.cross_checked
    assert calls == [(p, 2)]
