"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything is exact
integer arithmetic; decimal tolerances below apply only to the rendered
decimal strings.
"""

import time

from cyclosvp.idealsvp import (
    bounds,
    lambda1_sq_zsqrt2,
    lambda1_squared,
    lift_shortest,
    svsg_verify,
    zeta16_lift_check,
)
from cyclosvp.lattice import prime_ideal_lattice, svp_enumerate
from cyclosvp.ntheory import classify_prime, sieve_primes, sqrt_mod
from cyclosvp.pell import pell_oracle, solve_pell
from cyclosvp.rings import (
    CYCLO_EIGHTH,
    GAUSSIAN_INT,
    QUAD_SQRT2,
    QUARTIC_THETA,
)


def test_criterion_1_reference_prime_89():
    """p = 89, n = 2: lambda1^2 = 44 = (2 sqrt11)^2; bounds as displayed."""
    t0 = time.monotonic()
    res = lambda1_squared(89, 2)
    b = bounds(89, 2)
    elapsed = time.monotonic() - t0
    assert res.lambda1_sq == 44
    new_bound = float(b.bound_new_decimal)
    minkowski = float(b.bound_minkowski_decimal)
    # the tight bound is (2^5 * 89)^(1/4) = 7.30524854...; displayed ~7.31
    assert abs(new_bound - 2848**0.25) < 1e-9
    assert abs(new_bound - 7.3052) < 0.001
    assert abs(minkowski - 4 * 89**0.25) < 1e-9
    assert abs(minkowski - 12.285) <= 0.001
    # lambda1 itself renders as sqrt(44) = 6.63325, not 6.33
    assert b.lambda1_decimal == "6.63324958071"
    assert elapsed < 1.0
    print(
        f"\nPASS criterion 1: p=89 n=2 lambda1^2=44, new bound {new_bound:.4f}, "
        f"Minkowski {minkowski:.4f}, {elapsed:.3f}s"
    )


def test_criterion_2_pell_suite_to_1e6():
    """solve_pell == pell_oracle for both signs, plus the four identities,
    for every p = +-1 (mod 8) below 10^6; single-threaded < 5 min."""
    t0 = time.monotonic()
    checked = 0
    for p in sieve_primes(1_000_000):
        if p % 8 not in (1, 7):
            continue
        plus = solve_pell(p, 1)
        minus = solve_pell(p, -1)
        oplus = pell_oracle(p, 1)
        ominus = pell_oracle(p, -1)
        assert (plus.a, plus.b) == (oplus.a, oplus.b), p
        assert (minus.a, minus.b) == (ominus.a, ominus.b), p
        assert plus.a >= 2 * plus.b, p
        assert minus.a == plus.a - 2 * plus.b, p
        assert minus.b == plus.a - plus.b, p
        assert plus.a * plus.a < 2 * p, p
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 39221
    assert elapsed < 300.0
    print(f"\nPASS criterion 2: {checked} primes < 10^6, both signs, {elapsed:.1f}s")


def test_criterion_3_formula_vs_enumeration():
    """Every covered prime p < 300, every level from the class minimum up
    to 4 (rank <= 16): closed formula == Fincke-Pohst lambda1^2."""
    t0 = time.monotonic()
    pairs = 0
    for p in sieve_primes(300):
        if p == 2:
            continue
        rc = classify_prime(p)
        if not rc.supported:
            continue
        for n in range(rc.min_level, 5):
            res = lambda1_squared(p, n)
            # cross_checked == True records that enumeration at rank 2^n
            # found exactly the formula value
            assert res.witness.cross_checked, (p, n)
            pairs += 1
    elapsed = time.monotonic() - t0
    assert pairs == 150
    assert elapsed < 600.0
    print(f"\nPASS criterion 3: {pairs} (p, n) pairs, zero mismatches, {elapsed:.1f}s")


def test_criterion_3b_enumeration_with_slack_radius():
    """Sharper variant at rank <= 8: enumerate inside twice the formula
    radius and confirm nothing shorter exists."""
    t0 = time.monotonic()
    pairs = 0
    for p in sieve_primes(300):
        if p == 2:
            continue
        rc = classify_prime(p)
        if not rc.supported:
            continue
        for n in range(rc.min_level, 4):
            res = lambda1_squared(p, n)
            lat = _tower_lattice_for(p, n)
            cert = svp_enumerate(lat, 2 * res.lambda1_sq)
            assert cert.sq_length == res.lambda1_sq, (p, n)
            pairs += 1
    elapsed = time.monotonic() - t0
    print(f"\nPASS criterion 3b: slack-radius re-check on {pairs} pairs, {elapsed:.1f}s")


def _tower_lattice_for(p: int, n: int):
    from cyclosvp.idealsvp import _base_witness
    from cyclosvp.lattice import lift_ideal_lattice
    from cyclosvp.ntheory import class_label
    from cyclosvp.rings import cyclotomic

    base_lat, _ = _base_witness(p, class_label(p), n, None)
    return lift_ideal_lattice(base_lat, cyclotomic(n))


def test_criterion_4_svsg_suite():
    """In each of the four rings, every prime ideal of norm <= 500 has
    shortest-generator length == enumeration lambda1, exactly."""
    t0 = time.monotonic()
    total = 0
    for ring in (GAUSSIAN_INT, QUAD_SQRT2, CYCLO_EIGHTH, QUARTIC_THETA):
        rep = svsg_verify(ring, 500)
        assert rep.passed, rep.mismatches
        total += len(rep.entries)
    elapsed = time.monotonic() - t0
    print(f"\nPASS criterion 4: {total} prime ideals across 4 rings, {elapsed:.1f}s")


def test_criterion_5_zsqrt2_theorem():
    """For every p = +-1 (mod 8) below 10^4: 2 min(2a_p^2 - p, 2a_{-p}^2 + p)
    equals rank-2 enumeration, and lambda1^4 <= 8 p^2 exactly."""
    t0 = time.monotonic()
    checked = 0
    for p in sieve_primes(10_000):
        if p % 8 not in (1, 7):
            continue
        lam = lambda1_sq_zsqrt2(p)
        lat = prime_ideal_lattice(QUAD_SQRT2, p, sqrt_mod(2, p))
        assert svp_enumerate(lat, lam).sq_length == lam, p
        assert lam * lam <= 8 * p * p, p
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 603
    print(f"\nPASS criterion 5: {checked} primes < 10^4, {elapsed:.1f}s")


def test_criterion_6_lifting():
    """50 sampled certified witnesses double their squared length per
    level with nothing shorter at the lifted rank; the zeta16 extension
    check passes for the seven listed primes."""
    t0 = time.monotonic()
    samples = 0
    for p in sieve_primes(150):
        if p == 2:
            continue
        rc = classify_prime(p)
        if not rc.supported:
            continue
        base = lambda1_squared(p, rc.min_level)
        assert base.witness.cross_checked
        cert = base.witness
        for n in range(rc.min_level + 1, 5):
            lifted = lift_shortest(cert, n)
            assert lifted.sq_length == 2 * cert.sq_length, (p, n)
            assert lifted.cross_checked, (p, n)
            cert = lifted
            samples += 1
        if samples >= 50:
            break
    assert samples >= 50
    lift_primes = (7, 23, 71, 103, 151, 167, 199)
    for p in lift_primes:
        rep = zeta16_lift_check(p)
        assert rep.passed, p
        assert rep.extension_sq == 2 * rep.subfield_sq == 2 * rep.four_a_p, p
    elapsed = time.monotonic() - t0
    print(
        f"\nPASS criterion 6: {samples} lift steps verified; zeta16 checks for "
        f"{lift_primes}, {elapsed:.1f}s"
    )


def test_criterion_7_bound_chain():
    """For all p = 7, 9 (mod 16) below 10^4 and admissible n in {2, 3, 4}:
    lambda1^4 < 2^(2n+1) p < 2^(4n) p in exact integers."""
    t0 = time.monotonic()
    checked = 0
    for p in sieve_primes(10_000):
        if p % 16 not in (7, 9):
            continue
        a_p = solve_pell(p).a
        n_min = 2 if p % 16 == 9 else 3
        for n in range(n_min, 5):
            if n > 4:
                break
            lam_sq = (1 << n) * a_p
            assert lam_sq**2 < (1 << (2 * n + 1)) * p < (1 << (4 * n)) * p, (p, n)
            b = bounds(p, n)
            assert b.lambda1_sq == lam_sq
            checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 759  # 3 levels for each 9mod16 prime, 2 for each 7mod16
    print(f"\nPASS criterion 7: {checked} (p, n) bound chains, {elapsed:.1f}s")
