"""classify_prime is the one primality test of a tower query.

After it, every square root comes from the residue class of p
(ntheory.class_sqrt), so no query tests p again, at any size.  The
pell and sqrtmod commands leave the test to the library call.
"""

import io
import sys

import pytest

from cyclosvp import cli, idealsvp, ntheory
from cyclosvp.errors import DomainError
from cyclosvp.ntheory import COVERAGE, sqrt_mod
from cyclosvp.pell import solve_pell

BIG = 10**199
BIG_PRIME = {  # the least 200-digit prime above 10^199 in each covered class
    "9mod16": BIG + 153,
    "3mod8": BIG + 1867,
    "5mod8": BIG + 2229,
    "7mod16": BIG + 4983,
}
FALLBACK_PRIME = {  # the least 60-digit primes = 1 and 15 (mod 16)
    "1mod16": 10**59 + 193,
    "15mod16": 10**59 + 2287,
}


@pytest.fixture
def primality_tests(monkeypatch):
    """The arguments of every is_prime call, counted through every cyclosvp
    namespace that binds it."""
    seen = []
    real = ntheory.is_prime

    def counted(n):
        seen.append(n)
        return real(n)

    for key, module in list(sys.modules.items()):
        if module is not None and (key == "cyclosvp" or key.startswith("cyclosvp.")):
            for attr, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, attr, counted)
    return seen


def test_fixture_primes_are_in_their_classes():
    for label, p in {**BIG_PRIME, **FALLBACK_PRIME}.items():
        assert ntheory.class_label(p) == label and ntheory.is_prime(p)


@pytest.mark.parametrize("label", sorted(BIG_PRIME))
def test_tower_queries_test_p_once_at_200_digits(primality_tests, label):
    p = BIG_PRIME[label]
    for n in range(max(2, COVERAGE[label].min_level), 5):
        primality_tests.clear()
        res = idealsvp.lambda1_squared(p, n)
        assert res.witness.cross_checked
        assert primality_tests == [p], (label, n)
    primality_tests.clear()
    idealsvp.shortest_vector(p, 4)
    assert primality_tests == [p]
    if COVERAGE[label].uses_a_p:
        primality_tests.clear()
        idealsvp.bounds(p, 4)
        assert primality_tests == [p]


@pytest.mark.parametrize("label", sorted(FALLBACK_PRIME))
def test_enumeration_fallback_tests_p_once_at_60_digits(primality_tests, label):
    p = FALLBACK_PRIME[label]
    res = idealsvp.lambda1_squared(p, 3, enumerate_fallback=True)
    assert res.lambda1_sq == res.witness.sq_length and res.pell is not None
    assert primality_tests == [p]


@pytest.mark.parametrize("argv, library", [
    (("pell", "--p", "89"), lambda: solve_pell(89, 1)),
    (("pell", "--p", "71", "--sign", "-1"), lambda: solve_pell(71, -1)),
    (("sqrtmod", "--p", "89"), lambda: sqrt_mod(2, 89)),
    (("sqrtmod", "--p", "91"), lambda: sqrt_mod(2, 91)),
])
def test_pell_and_sqrtmod_commands_add_no_primality_test(primality_tests, argv, library):
    """The library call is the command's primality test: the command runs
    is_prime as often as the call it wraps.  (solve_pell and sqrt_mod keep
    their own internal re-tests.)"""
    try:
        library()
    except DomainError:
        pass
    in_library = len(primality_tests)
    primality_tests.clear()
    cli.run(list(argv), out=io.StringIO())
    assert len(primality_tests) == in_library


@pytest.mark.parametrize("p", [71, 89, 97])
def test_solve_pell_minus_tests_p_as_often_as_plus(primality_tests, p):
    """solve_pell(p, -1) validates p once and derives its answer from the
    +p solution without calling solve_pell(p, 1) again."""
    solve_pell(p, 1)
    plus = len(primality_tests)
    primality_tests.clear()
    solve_pell(p, -1)
    assert len(primality_tests) == plus


def run_cli(*argv):
    out = io.StringIO()
    return cli.run([str(a) for a in argv], out=out), out.getvalue()


@pytest.mark.parametrize("p", [-7, 0, 1, 91, 561])
def test_pell_and_sqrtmod_refuse_non_primes_byte_exact(p):
    for argv in (("pell", "--p", p), ("pell", "--p", p, "--sign", -1),
                 ("sqrtmod", "--p", p)):
        assert run_cli(*argv) == (2, '{"error": "not_prime"}\n'), argv


def test_pell_and_sqrtmod_at_two_and_at_a_prime_byte_exact():
    ramified = '{"error": "p = 2 is ramified; a^2 - 2b^2 = +-2 has no prime solution here"}\n'
    assert run_cli("pell", "--p", 2) == (2, ramified)
    assert run_cli("pell", "--p", 2, "--sign", -1) == (2, ramified)
    assert run_cli("sqrtmod", "--p", 2) == (
        2, '{"error": "sqrt_mod needs an odd prime modulus, got 2"}\n')
    assert run_cli("pell", "--p", 89) == (0, '{"a_p": "11", "b_p": "4"}\n')
    assert run_cli("pell", "--p", 89, "--sign", -1) == (0, '{"a_-p": "3", "b_-p": "7"}\n')
    assert run_cli("sqrtmod", "--p", 89) == (0, '{"a": "2", "p": "89", "root": "25"}\n')
    assert run_cli("pell", "--p", 3) == (
        2, '{"error": "equation_unsolvable", "class_mod8": "3"}\n')


@pytest.mark.parametrize("p, d", [
    (97, 1), (97, 2), (89, 1), (11, 2), (13, 1),
    (BIG_PRIME["9mod16"], 1), (BIG_PRIME["9mod16"], 2),
    (BIG_PRIME["3mod8"], 2), (BIG_PRIME["5mod8"], 1),
], ids=lambda v: str(v) if v < 10**6 else f"1e199+{v - BIG}")
def test_cornacchia_tests_p_once(primality_tests, p, d):
    a, b = idealsvp.cornacchia(p, d)
    assert a * a + d * b * b == p
    assert primality_tests == [p]


def test_prime_ideal_inventory_runs_no_primality_test(primality_tests):
    for ring in idealsvp.SVSG_RINGS:
        assert idealsvp.prime_ideals_up_to_norm(ring, 500)
    assert primality_tests == []
