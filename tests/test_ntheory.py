import pytest

from cyclosvp.errors import DomainError
from cyclosvp.ntheory import (
    classify_prime,
    is_prime,
    legendre,
    require_prime,
    root_of_minus_one,
    sieve_primes,
    sqrt_mod,
)


def test_is_prime_examples():
    assert is_prime(2)
    assert is_prime(89)
    assert not is_prime(91)  # 7 * 13


def test_is_prime_rejects_small_input():
    with pytest.raises(DomainError):
        is_prime(1)
    with pytest.raises(DomainError):
        is_prime(0)


def test_is_prime_against_sieve():
    flags = set(sieve_primes(10000))
    for n in range(2, 10000):
        assert is_prime(n) == (n in flags), n


def test_is_prime_large_values():
    assert is_prime(2**61 - 1)  # Mersenne prime
    assert not is_prime(561)  # Carmichael
    assert not is_prime(2**61 + 1)


def test_sqrt_mod_examples():
    # closed form branch: 2^((7+1)/4) = 4, canonical root min(4, 3) = 3
    assert sqrt_mod(2, 7) == 3
    for p in (3, 5, 7, 13, 89, 101):
        assert sqrt_mod(1, p) == 1


def test_sqrt_mod_2_mod_89_brute_force():
    expected = min(r for r in range(1, 89) if r * r % 89 == 2)
    assert expected == 25 and 25 * 25 == 7 * 89 + 2
    assert sqrt_mod(2, 89) == 25


def test_sqrt_mod_nonresidue_marker():
    assert sqrt_mod(3, 7) is None
    assert sqrt_mod(2, 5) is None


def test_sqrt_mod_domain_errors():
    with pytest.raises(DomainError):
        sqrt_mod(14, 7)  # gcd(a, p) != 1
    with pytest.raises(DomainError):
        sqrt_mod(3, 2)
    with pytest.raises(DomainError):
        sqrt_mod(3, 15)


def test_sqrt_mod_squares_back():
    for p in (13, 17, 41, 97, 113, 257):
        for a in range(1, p):
            r = sqrt_mod(a, p)
            if legendre(a, p) == 1:
                assert r is not None and r * r % p == a and r <= p - r
            else:
                assert r is None


def test_closed_form_agreement_below_1e5():
    # for p = 7 (mod 8) the canonical root of 2 equals the closed form
    for p in sieve_primes(100000):
        if p % 8 != 7:
            continue
        closed = pow(2, (p + 1) // 4, p)
        assert sqrt_mod(2, p) == min(closed, p - closed)


def test_classify_examples():
    rc = classify_prime(89)
    assert rc.class_mod16 == 9 and rc.supported and rc.min_level == 2
    assert any("Z[sqrt2]" in s for s in rc.splitting)
    assert any("Z[zeta8]" in s for s in rc.splitting)

    rc = classify_prime(13)
    assert rc.class_mod8 == 5 and rc.supported and rc.min_level == 1

    rc = classify_prime(31)
    assert rc.class_mod16 == 15 and not rc.supported and rc.min_level is None


def test_classify_7mod16_tower():
    rc = classify_prime(7)
    assert rc.supported and rc.min_level == 3
    assert any("zeta16+zeta16^7" in s for s in rc.splitting)


def test_classify_rejects_two_and_composites():
    with pytest.raises(DomainError):
        classify_prime(2)
    with pytest.raises(DomainError):
        classify_prime(91)


def test_non_primes_carry_the_not_prime_payload():
    assert require_prime(89) == 89
    for n in (-7, 0, 1, 91, 561):
        with pytest.raises(DomainError) as exc:
            require_prime(n)
        assert exc.value.payload == {"error": "not_prime"}
    for n in (1, 91):
        with pytest.raises(DomainError) as exc:
            classify_prime(n)
        assert exc.value.payload == {"error": "not_prime"}


def test_supported_iff_class_exhaustive():
    for p in sieve_primes(10000):
        if p == 2:
            continue
        rc = classify_prime(p)
        assert rc.class_mod8 == p % 8
        assert rc.class_mod16 == p % 16
        assert rc.class_mod16 % 8 == rc.class_mod8
        assert rc.supported == (p % 8 in (3, 5) or p % 16 in (7, 9))


def test_root_of_minus_one():
    r = root_of_minus_one(89, 2)
    assert r == 12 and pow(12, 4, 89) == 88
    # smallest such root
    assert r == min(x for x in range(1, 89) if pow(x, 4, 89) == 88)
    with pytest.raises(DomainError):
        root_of_minus_one(7, 2)  # 16 does not divide 6
