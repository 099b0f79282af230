import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cyclosvp import idealsvp, lattice
from cyclosvp.errors import DomainError, RadiusExhausted
from cyclosvp.lattice import (
    IntegerLattice,
    canonical_coeffs,
    contains,
    enumerate_all,
    gauss_reduce,
    gauss_reduce_gram,
    gram_det,
    hnf_rows,
    lattice_from_rows,
    lift_ideal_lattice,
    lift_lattice_basis,
    lll_reduce,
    prime_ideal_from_factor,
    prime_ideal_lattice,
    principal_ideal_lattice,
    svp_enumerate,
    svp_with_doubling,
)
from cyclosvp.ntheory import root_of_minus_one
from cyclosvp.rings import (
    CYCLO_EIGHTH,
    GAUSSIAN_INT,
    QUAD_SQRT2,
    QUARTIC_THETA,
    canonical_inner,
    cyclotomic,
    element,
    field_norm,
    integer,
    lift_element,
    mul,
)


def det2(u):
    return u[0][0] * u[1][1] - u[0][1] * u[1][0]


def ring_disc(ring):
    return gram_det(ring.gram)


# --- construction / HNF ---------------------------------------------------


def test_prime_ideal_zsqrt2_7():
    lat = prime_ideal_lattice(QUAD_SQRT2, 7, 4)
    rows = lat.rows()
    # lower-triangular HNF, positive diagonal, reduced entry below
    assert rows[0] == [7, 0] and rows[1][1] == 1 and 0 <= rows[1][0] < 7
    # generating rows (7,0) and (-4,1) have inner products 98, -56, 36
    a = element(QUAD_SQRT2, (7, 0))
    b = element(QUAD_SQRT2, (-4, 1))
    assert canonical_inner(a, a) == 98
    assert canonical_inner(a, b) == -56
    assert canonical_inner(b, b) == 36
    # same lattice: membership of both generators, determinant N^2 * disc
    assert contains(lat, a) and contains(lat, b)
    assert gram_det(lat.gram) == 49 * ring_disc(QUAD_SQRT2)
    assert not contains(lat, integer(QUAD_SQRT2, 1))


def test_prime_ideal_invalid_root():
    with pytest.raises(DomainError) as err:
        prime_ideal_lattice(QUAD_SQRT2, 7, 5)
    assert "residue 2" in str(err.value)  # 25 - 2 = 23 = 2 (mod 7)
    with pytest.raises(DomainError):
        prime_ideal_lattice(CYCLO_EIGHTH, 89, 34)  # 34^4 + 1 = 2 (mod 89)


def test_prime_ideal_zeta8_89():
    lat = prime_ideal_lattice(CYCLO_EIGHTH, 89, 12)
    assert pow(12, 4, 89) == 88
    assert lat.rank == 4
    assert gram_det(lat.gram) == 89 * 89 * ring_disc(CYCLO_EIGHTH)


def test_hnf_shape_and_lattice_preservation():
    rows = [[4, 2, 0], [2, 8, 2], [0, 2, 6], [6, 10, 2]]
    hnf = hnf_rows(rows, 3)
    for i in range(3):
        assert hnf[i][i] > 0
        for j in range(i + 1, 3):
            assert hnf[i][j] == 0
        for j in range(i):
            assert 0 <= hnf[i][j] < hnf[j][j]


def test_prime_ideal_from_factor_degree2():
    # x^4 + 1 = (x^2 - 3x - 1)(x^2 + 3x - 1) mod 11 since 3^2 = -2 (mod 11)
    lat = prime_ideal_from_factor(CYCLO_EIGHTH, 11, [10, 8, 1])
    assert gram_det(lat.gram) == 11**4 * ring_disc(CYCLO_EIGHTH)
    with pytest.raises(DomainError):
        prime_ideal_from_factor(CYCLO_EIGHTH, 11, [1, 1, 1])


def test_principal_ideal_lattice_norm():
    alpha = element(GAUSSIAN_INT, (3, 2))
    lat = principal_ideal_lattice(GAUSSIAN_INT, alpha)
    assert gram_det(lat.gram) == 13 * 13 * ring_disc(GAUSSIAN_INT)
    assert contains(lat, alpha)
    with pytest.raises(DomainError):
        principal_ideal_lattice(GAUSSIAN_INT, integer(GAUSSIAN_INT, 0))


def _reference_prime_ideal(ring, p, g):
    """HNF of every multiple p th^k and g(th) th^k (k < d), by generic mul:
    the ideal (p, g(th)) without the builder's powers x^j mod g."""
    d = ring.degree
    theta = element(ring, [0, 1] + [0] * (d - 2))
    powers = [integer(ring, 1)]
    for _ in range(d):
        powers.append(mul(powers[-1], theta))
    g_theta = element(ring, [sum(c * x.coeffs[i] for c, x in zip(g, powers))
                             for i in range(d)])
    rows = []
    for gen in (integer(ring, p), g_theta):
        for x in powers[:d]:
            rows.append(list(mul(gen, x).coeffs))
    return hnf_rows(rows, d)


ALL_RINGS = [GAUSSIAN_INT, QUAD_SQRT2, CYCLO_EIGHTH, QUARTIC_THETA, cyclotomic(3),
             cyclotomic(4)]


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda ring: ring.name)
def test_prime_ideal_lattice_is_the_hnf_of_all_multiples(ring):
    checked = 0
    for p in (2, 3, 5, 7, 13, 17, 23, 41, 89, 97, 193):
        for r in _roots(ring, p):
            lat = prime_ideal_lattice(ring, p, r)
            assert lat.rows() == _reference_prime_ideal(ring, p, [-r, 1]), (p, r)
            assert lat.ideal_meta == (p, r)
            checked += 1
    assert checked >= 9


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda ring: ring.name)
def test_prime_ideal_from_factor_is_the_hnf_of_all_multiples(ring):
    factors = [(p, list(ring.poly)) for p in (3, 5, 11)]  # g = f: the ideal (p)
    if ring.degree == 4:  # the inventory's quadratic factors
        for p in (3, 5, 7, 11, 13, 19, 29, 31, 41, 47, 73, 79, 89):
            if not _roots(ring, p):
                factors += [(p, g) for g in idealsvp._quadratic_factors(ring, p) or ()]
        assert len(factors) >= 12
    for p, g in factors:
        lat = prime_ideal_from_factor(ring, p, g)
        assert lat.rows() == _reference_prime_ideal(ring, p, g), (p, g)
        assert lat.ideal_meta == (p, None)
        assert gram_det(lat.gram) == p ** (2 * (len(g) - 1)) * ring_disc(ring)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_degree2_fallback_lattice_is_the_hnf_of_all_multiples(n):
    order = 2 << n
    checked = 0
    for p in (7, 23, 31, 47, 79, 97, 127, 191, 223):
        if (p * p - 1) % order or (p - 1) % order == 0:
            continue
        lat = idealsvp._degree2_prime_lattice(p, n)
        # row 2 is th^2 - (x^2 mod g)(th), so it names g = x^2 + c1 x + c0
        g = [lat.basis[2].coeffs[0], lat.basis[2].coeffs[1], 1]
        assert all((r * r + g[1] * r + g[0]) % p for r in range(p))  # irreducible
        assert lat.rows() == _reference_prime_ideal(cyclotomic(n), p, g), p
        assert lat.ideal_meta == (p, None)
        assert gram_det(lat.gram) == p**4 * ring_disc(cyclotomic(n))
        checked += 1
    assert checked >= 3


def test_prime_ideal_refusals_byte_exact():
    with pytest.raises(DomainError) as err:
        prime_ideal_lattice(CYCLO_EIGHTH, 89, 34)
    assert str(err.value) == (
        "(p=89, r=34) is not an ideal of zeta8: defining polynomial has residue 2 at r")
    assert err.value.payload == {"error": "not_an_ideal", "residue": "2"}
    with pytest.raises(DomainError) as err:
        prime_ideal_lattice(QUAD_SQRT2, 7, -2)  # (-2)^2 - 2 = 2 (mod 7)
    assert str(err.value) == (
        "(p=7, r=-2) is not an ideal of zsqrt2: defining polynomial has residue 2 at r")
    assert err.value.payload == {"error": "not_an_ideal", "residue": "2"}
    for g in ([1, 1, 1], [1, 1], [1, 0, 0, 0, 0, 1]):  # no divisor of x^4 + 1 mod 11
        with pytest.raises(DomainError) as err:
            prime_ideal_from_factor(CYCLO_EIGHTH, 11, g)
        assert str(err.value) == "g does not divide the defining polynomial of zeta8 mod 11"
        assert err.value.payload == {}
    with pytest.raises(DomainError) as err:
        prime_ideal_from_factor(CYCLO_EIGHTH, 11, [10, 8, 2])
    assert str(err.value) == "factor must be monic"


# --- Gauss reduction ------------------------------------------------------


def test_gauss_reduce_7():
    lat = prime_ideal_lattice(QUAD_SQRT2, 7, 4)
    red = gauss_reduce(lat)
    assert red.gram[0][0] == 18
    assert red.gram[0][0] <= red.gram[1][1]
    assert 2 * abs(red.gram[0][1]) <= red.gram[0][0]
    assert det2(red.transform) in (1, -1)
    assert gram_det(red.gram) == gram_det(lat.gram)
    # the first vector is the shortest: enumeration agrees
    assert svp_enumerate(lat, 18).sq_length == 18


def test_gauss_reduce_89():
    lat = prime_ideal_lattice(QUAD_SQRT2, 89, 25)
    red = gauss_reduce(lat)
    assert red.gram[0][0] == 214  # 2 * min(2*11^2 - 89, 2*3^2 + 89)
    assert svp_enumerate(lat, 214).sq_length == 214


def test_gauss_reduce_idempotent():
    lat = prime_ideal_lattice(QUAD_SQRT2, 17, 6)
    red = gauss_reduce(lat)
    again = gauss_reduce(red)
    assert again.gram == red.gram


def test_gauss_reduce_needs_rank_2():
    lat = prime_ideal_lattice(CYCLO_EIGHTH, 89, 12)
    with pytest.raises(DomainError):
        gauss_reduce(lat)


# --- LLL ------------------------------------------------------------------


def test_lll_agrees_with_gauss_in_rank_2():
    for p, r in ((7, 4), (17, 6), (89, 25), (23, 5)):
        lat = prime_ideal_lattice(QUAD_SQRT2, p, r)
        assert lll_reduce(lat).gram[0][0] == gauss_reduce(lat).gram[0][0]


def test_lll_identity_gram_unchanged():
    lat = principal_ideal_lattice(cyclotomic(3), integer(cyclotomic(3), 1))
    red = lll_reduce(lat)
    assert red.gram == lat.gram


def test_lll_rank8_prime_ideal_over_7():
    # the rank-8 prime ideal of Z[zeta16] over 7 extends the theta-subring
    # degree-1 ideal; lambda1^2 = 2^3 * a_7 = 24
    roots = [r for r in range(7) if (pow(r, 4, 7) + 4 * r * r + 2) % 7 == 0]
    base = prime_ideal_lattice(QUARTIC_THETA, 7, roots[0])
    lat = lift_ideal_lattice(base, cyclotomic(3))
    red = lll_reduce(lat)
    assert gram_det(red.gram) == gram_det(lat.gram)
    assert red.gram[0][0] >= 24
    assert svp_enumerate(lat, 24).sq_length == 24
    # transform is unimodular
    u = [list(r) for r in red.transform]
    assert abs(_det_int(u, red.rank)) == 1


def test_lift_of_non_prime_ideal_keeps_subring_minimum():
    # (7, sqrt2-4) extends to the product of two zeta16 primes; the
    # subring shortest vector (length^2 18) stays shortest, scaled by 4
    base = prime_ideal_lattice(QUAD_SQRT2, 7, 4)
    lat = lift_ideal_lattice(base, cyclotomic(3))
    assert svp_enumerate(lat, 72).sq_length == 72


def _det_int(m, n):
    mat = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for i in range(n):
        piv = next((r for r in range(i, n) if mat[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            mat[i], mat[piv] = mat[piv], mat[i]
            det = -det
        det *= mat[i][i]
        for r in range(i + 1, n):
            f = mat[r][i] / mat[i][i]
            for c in range(i, n):
                mat[r][c] -= f * mat[i][c]
    return int(det)


# --- enumeration ----------------------------------------------------------


def test_svp_zeta8_89():
    lat = prime_ideal_lattice(CYCLO_EIGHTH, 89, 12)
    cert = svp_enumerate(lat, 44)
    assert cert.sq_length == 44
    assert cert.vector.coeffs == (0, 1, 1, 3)
    assert contains(lat, cert.vector)


def test_svp_gaussian_13():
    lat = prime_ideal_lattice(GAUSSIAN_INT, 13, 5)
    cert = svp_enumerate(lat, 26)
    assert cert.sq_length == 26
    # canonical tie-break among {(3,2) torsion orbit}: (2,-3) is lex-least
    assert cert.vector.coeffs == (2, -3)
    assert abs(field_norm(cert.vector)) == 13


def test_svp_monotone_in_radius():
    lat = prime_ideal_lattice(CYCLO_EIGHTH, 89, 12)
    for radius in (44, 88, 176):
        cert = svp_enumerate(lat, radius)
        assert cert.sq_length == 44 and cert.vector.coeffs == (0, 1, 1, 3)


def test_svp_radius_exhausted_and_doubling():
    lat = prime_ideal_lattice(CYCLO_EIGHTH, 89, 12)
    with pytest.raises(RadiusExhausted):
        svp_enumerate(lat, 40)
    assert svp_with_doubling(lat, 4).sq_length == 44
    with pytest.raises(RadiusExhausted):
        svp_with_doubling(lat, 1, retries=2)


def test_svp_rank1_guard():
    lat = IntegerLattice(
        GAUSSIAN_INT,
        (element(GAUSSIAN_INT, (7, 0)),),
        ((98,),),
    )
    cert = svp_enumerate(lat, 98)
    assert cert.sq_length == 98 and cert.vector.coeffs == (7, 0)
    with pytest.raises(RadiusExhausted):
        svp_enumerate(lat, 97)
    vecs = enumerate_all(lat, 98 * 4)
    assert [(v.coeffs, sq) for v, sq in vecs] == [((7, 0), 98), ((14, 0), 392)]


def test_enumeration_scale_divisibility():
    # canonical lengths in the level-k ring are multiples of 2^k
    for k, p, r in ((2, 89, 12), (2, 41, 14)):
        lat = prime_ideal_lattice(cyclotomic(k), p, r)
        for v, sq in enumerate_all(lat, 16 * p):
            assert sq % (1 << k) == 0


def test_enumerate_all_against_box_scan_rank2():
    p, r = 23, 5
    lat = prime_ideal_lattice(QUAD_SQRT2, p, r)
    radius = 200
    expected = set()
    for u in range(-20, 21):
        for v in range(-20, 21):
            if (u, v) == (0, 0) or (u + v * r) % p:
                continue
            sq = 2 * (u * u + 2 * v * v)
            if sq <= radius:
                expected.add((canonical_coeffs((u, v)), sq))
    got = {(v.coeffs, sq) for v, sq in enumerate_all(lat, radius)}
    assert got == expected


def test_enumerate_all_against_box_scan_rank4():
    p = 41
    r = 14  # 14^4 = -1 (mod 41)
    assert pow(r, 4, p) == p - 1
    lat = prime_ideal_lattice(CYCLO_EIGHTH, p, r)
    radius = 4 * 41
    expected = set()
    for coeffs in itertools.product(range(-7, 8), repeat=4):
        if not any(coeffs):
            continue
        if sum(c * pow(r, j, p) for j, c in enumerate(coeffs)) % p:
            continue
        sq = 4 * sum(c * c for c in coeffs)
        if sq <= radius:
            expected.add((canonical_coeffs(coeffs), sq))
    got = {(v.coeffs, sq) for v, sq in enumerate_all(lat, radius)}
    assert got == expected


def test_enumeration_rank_cap(monkeypatch):
    assert lattice.MAX_ENUMERATION_RANK == 16
    base = prime_ideal_lattice(QUAD_SQRT2, 7, 4)
    lat = lift_ideal_lattice(base, cyclotomic(3))
    assert lat.rank == 8 and svp_enumerate(lat, 72).sq_length == 72
    big = prime_ideal_lattice(cyclotomic(5), 193, root_of_minus_one(193, 5))

    def refuse(_lat, *args, **kwargs):
        raise AssertionError("lll_reduce ran above the cap")

    monkeypatch.setattr(lattice, "lll_reduce", refuse)
    with pytest.raises(DomainError) as exc:
        svp_enumerate(big)
    assert str(exc.value) == "rank 32 exceeds enumeration cap 16"
    with pytest.raises(DomainError):
        enumerate_all(big, 1 << 20)


# --- the integer kernel against rational references -----------------------


def _reference_lll_transform(gram, delta=Fraction(99, 100)):
    """Textbook LLL on exact rational Gram-Schmidt data; returns U."""
    n = len(gram)
    mu = [[Fraction(0)] * n for _ in range(n)]
    bstar = [Fraction(0)] * n
    for i in range(n):
        for j in range(i + 1):
            val = Fraction(gram[i][j]) - sum(
                (mu[j][k] * mu[i][k] * bstar[k] for k in range(j)), Fraction(0)
            )
            if j < i:
                mu[i][j] = val / bstar[j]
            else:
                bstar[i] = val
    u = [[int(i == j) for j in range(n)] for i in range(n)]

    def size_reduce(k, l):
        if abs(mu[k][l]) * 2 > 1:
            q = round(mu[k][l])
            u[k] = [a - q * b for a, b in zip(u[k], u[l])]
            for t in range(l):
                mu[k][t] -= q * mu[l][t]
            mu[k][l] -= q

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        if bstar[k] < (delta - mu[k][k - 1] ** 2) * bstar[k - 1]:
            m = mu[k][k - 1]
            bnew = bstar[k] + m * m * bstar[k - 1]
            mu[k][k - 1] = m * bstar[k - 1] / bnew
            bstar[k] = bstar[k - 1] * bstar[k] / bnew
            bstar[k - 1] = bnew
            u[k - 1], u[k] = u[k], u[k - 1]
            for t in range(k - 1):
                mu[k - 1][t], mu[k][t] = mu[k][t], mu[k - 1][t]
            for i in range(k + 1, n):
                t = mu[i][k]
                mu[i][k] = mu[i][k - 1] - m * t
                mu[i][k - 1] = t + mu[k][k - 1] * mu[i][k]
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    return u


def _random_lattice(rng, rank, digits, knapsack):
    """A rank-``rank`` sublattice of Z[zeta32]: either a knapsack basis
    (N, 0, ...), (r_i, e_i), which needs many swaps, or dense random rows."""
    ring = cyclotomic(4)
    if knapsack:
        big = rng.randrange(10 ** (digits - 1), 10**digits)
        rows = [[big] + [0] * 15] + [
            [rng.randrange(big)] + [int(j == i) for j in range(1, 16)]
            for i in range(1, rank)
        ]
    else:
        rows = [[rng.randrange(-(10**digits), 10**digits) for _ in range(16)]
                for _ in range(rank)]
    basis = tuple(element(ring, r) for r in rows)
    gram = tuple(tuple(canonical_inner(a, b) for b in basis) for a in basis)
    return IntegerLattice(ring, basis, gram)


def _lattice_cases():
    rng = random.Random(20260101)
    for rank in range(2, 17):
        digits = 200 if rank <= 8 else 40
        yield _random_lattice(rng, rank, digits, knapsack=True)
        yield _random_lattice(rng, rank, digits, knapsack=False)
    yield _random_lattice(rng, 12, 200, knapsack=True)


def test_lll_matches_rational_reference():
    for lat in _lattice_cases():
        red = lll_reduce(lat)
        u = _reference_lll_transform(lat.gram)
        assert [list(r) for r in red.transform] == u
        rows = lat.rows()
        expected = [
            [sum(u[i][k] * rows[k][j] for k in range(lat.rank)) for j in range(16)]
            for i in range(lat.rank)
        ]
        assert red.rows() == expected


def _svp_cases():
    rng = random.Random(7)
    for rank in range(2, 9):
        yield _random_lattice(rng, rank, 2, knapsack=False)
        yield _random_lattice(rng, rank, 3, knapsack=True)
    yield prime_ideal_lattice(GAUSSIAN_INT, 13, 5)
    yield prime_ideal_lattice(QUAD_SQRT2, 89, 25)
    yield prime_ideal_lattice(CYCLO_EIGHTH, 89, 12)
    yield lift_ideal_lattice(prime_ideal_lattice(QUAD_SQRT2, 7, 4), cyclotomic(3))
    yield lift_ideal_lattice(prime_ideal_lattice(CYCLO_EIGHTH, 41, 14), cyclotomic(4))


def test_svp_without_radius_is_first_of_enumerate_all():
    for lat in _svp_cases():
        cert = svp_enumerate(lat)
        red = lll_reduce(lat)
        shortest = enumerate_all(lat, min(red.gram[i][i] for i in range(red.rank)))
        assert (cert.vector, cert.sq_length) == shortest[0]


def test_svp_radius_never_above_the_answer():
    lat = prime_ideal_lattice(CYCLO_EIGHTH, 89, 12)
    for radius in (None, 44, 45, 10**6):
        cert = svp_enumerate(lat, radius)
        assert cert.sq_length == 44 and cert.vector.coeffs == (0, 1, 1, 3)


def test_fallback_rank16_needs_one_enumeration(monkeypatch):
    # p = 31, 223, 383, 769 at n = 4: lambda1^2 exceeds twice the AM-GM
    # floor d N^(2/d), so a search started there would have to grow its radius
    ref = json.loads(
        (Path(__file__).parents[1] / "perfbench" / "fallback_reference.json").read_text()
    )
    raised = []

    class CountingRadiusExhausted(RadiusExhausted):
        def __init__(self, *args):
            raised.append(args)
            super().__init__(*args)

    calls = []
    real_svp = idealsvp.svp_enumerate

    def counting_svp(*args, **kwargs):
        calls.append(args)
        return real_svp(*args, **kwargs)

    monkeypatch.setattr(lattice, "RadiusExhausted", CountingRadiusExhausted)
    monkeypatch.setattr(idealsvp, "svp_enumerate", counting_svp)
    for p in (31, 223, 383, 769):
        res = idealsvp.lambda1_squared(p, 4, enumerate_fallback=True)
        assert res.lambda1_sq == ref[f"{p},4"]
    assert ref["31,4"] == 80
    assert len(calls) == 4 and raised == []


# --- lifting lattices -----------------------------------------------------


def test_lift_ideal_lattice_determinants():
    base = prime_ideal_lattice(GAUSSIAN_INT, 13, 5)
    for k in (2, 3):
        lifted = lift_ideal_lattice(base, cyclotomic(k))
        d = cyclotomic(k).degree
        # index of the lifted ideal is N^(d/2) = 13^(d/2)
        assert gram_det(lifted.gram) == 13**d * ring_disc(cyclotomic(k))


def test_lift_theta_to_zeta16():
    roots = [r for r in range(7) if (pow(r, 4, 7) + 4 * pow(r, 2, 7) + 2) % 7 == 0]
    base = prime_ideal_lattice(QUARTIC_THETA, 7, roots[0])
    lifted = lift_ideal_lattice(base, cyclotomic(3))
    assert lifted.rank == 8
    # the extension has norm 7^2, so det(Gram) = (7^2)^2 * disc
    assert gram_det(lifted.gram) == 7**4 * ring_disc(cyclotomic(3))


def _roots(ring, p):
    return [r for r in range(p)
            if sum(c * pow(r, j, p) for j, c in enumerate(ring.poly)) % p == 0]


@pytest.mark.parametrize("source, levels, primes", [
    (GAUSSIAN_INT, range(2, 6), (5, 13, 89)),
    (QUAD_SQRT2, range(2, 6), (7, 17, 89)),
    (CYCLO_EIGHTH, range(3, 6), (17, 41, 89)),
    (QUARTIC_THETA, range(3, 6), (7, 71, 97)),
])
def test_lift_ideal_lattice_is_the_hnf_of_all_zeta_multiples(source, levels, primes):
    """(ideal) * O_L is spanned by zeta^k * b_i for every k < d_target;
    the lift keeps only k below the degree ratio and must give the same
    HNF.  The multiples here come from generic mul."""
    for p in primes:
        for r in _roots(source, p)[:2]:
            base = prime_ideal_lattice(source, p, r)
            for k in levels:
                target = cyclotomic(k)
                d = target.degree
                zeta = element(target, [0, 1] + [0] * (d - 2))
                rows = []
                for b in base.basis:
                    cur = lift_element(b, target)
                    for _ in range(d):
                        rows.append(list(cur.coeffs))
                        cur = mul(cur, zeta)
                lifted = lift_ideal_lattice(base, target)
                assert lifted.rows() == hnf_rows(rows, d)
                assert lifted.gram == lattice_from_rows(target, rows).gram
                assert lifted.ideal_meta == (p, None)
            assert lift_ideal_lattice(base, source) is base


@pytest.mark.parametrize("source, p", [
    (GAUSSIAN_INT, 89), (CYCLO_EIGHTH, 89), (cyclotomic(3), 97),
])
def test_lifted_basis_gram_is_block_diagonal(source, p):
    """From a cyclotomic source, with j the outer loop, the Gram matrix of
    the rows zeta^j * b_i is r diagonal blocks, each r times the source
    Gram, and those rows span the lifted ideal."""
    lat = prime_ideal_lattice(source, p, root_of_minus_one(p, source.cyclo_level))
    base = lll_reduce(lat)
    m = base.rank
    for k in range(source.cyclo_level, 6):
        target = cyclotomic(k)
        r = target.degree // m
        tower = lift_lattice_basis(base, target)
        assert tower.rank == target.degree
        for i in range(tower.rank):
            for j in range(tower.rank):
                same = i // m == j // m
                want = r * base.gram[i % m][j % m] if same else 0
                assert tower.gram[i][j] == want
        assert hnf_rows(tower.rows(), target.degree) == lift_ideal_lattice(lat, target).rows()


def test_lift_ideal_requires_larger_ring():
    lat = prime_ideal_lattice(CYCLO_EIGHTH, 89, 12)
    with pytest.raises(DomainError):
        lift_ideal_lattice(lat, GAUSSIAN_INT)


# --- misc -----------------------------------------------------------------


def test_round_div_matches_fraction_rounding():
    for a in range(-60, 61):
        for b in range(1, 13):
            assert lattice._round_div(a, b) == round(Fraction(a, b))
    big = 10**200 + 7
    assert lattice._round_div(3 * big, 2 * big) == 2  # 3/2, half to even
    assert lattice._round_div(-5 * big, 2 * big) == -2


def test_gauss_reduce_gram_rounds_half_to_even():
    # <b1,b2> / |b1|^2 = 3/2 and 5/2 round to 2 (round(Fraction) semantics)
    assert gauss_reduce_gram(((2, 3), (3, 100)))[1] == [[1, 0], [-2, 1]]
    assert gauss_reduce_gram(((2, 5), (5, 100)))[1] == [[1, 0], [-2, 1]]


def test_gauss_reduce_gram_unimodular():
    gram = ((2 * 89 * 89, 2 * 89 * 25), (2 * 89 * 25, 2 * 25 * 25 + 4))
    red, u = gauss_reduce_gram(gram)
    assert det2(u) in (1, -1)
    assert red[0][0] <= red[1][1] and 2 * abs(red[0][1]) <= red[0][0]


def test_lattice_from_rows_requires_full_rank():
    with pytest.raises(DomainError):
        lattice_from_rows(QUAD_SQRT2, [[2, 0]])


def test_contains_on_a_basis_not_in_hnf():
    lat = prime_ideal_lattice(cyclotomic(2), 89, root_of_minus_one(89, 2))
    red = lll_reduce(lat)
    assert red.rows() != lat.rows()
    assert all(contains(red, b) for b in red.basis + lat.basis)
    assert not contains(red, integer(CYCLO_EIGHTH, 1))
    rng = random.Random(89)
    for _ in range(100):
        x = [rng.randrange(-50, 51) for _ in range(4)]
        member = element(CYCLO_EIGHTH, [sum(xi * b.coeffs[j] for xi, b in zip(x, lat.basis))
                                        for j in range(4)])
        assert contains(red, member)
        # 1 is not in the ideal, so no member plus 1 is
        outside = element(CYCLO_EIGHTH, (member.coeffs[0] + 1,) + member.coeffs[1:])
        assert not contains(red, outside) and not contains(lat, outside)


def _gso_of(lat):
    d, lam = lattice._integral_gso(lat.gram)
    return tuple(d), tuple(tuple(row) for row in lam)


def _gso_cases():
    for k in range(1, 5):  # rank 2, 4, 8, 16 prime ideals and their lifts
        ring = cyclotomic(k)
        yield prime_ideal_lattice(ring, 97, root_of_minus_one(97, k))
        yield lift_lattice_basis(lll_reduce(prime_ideal_lattice(GAUSSIAN_INT, 89, 34)), ring)
    yield prime_ideal_lattice(QUAD_SQRT2, 89, 25)
    yield prime_ideal_lattice(QUARTIC_THETA, 71, 9)
    yield lift_lattice_basis(lll_reduce(prime_ideal_lattice(QUARTIC_THETA, 71, 9)),
                             cyclotomic(3))
    yield prime_ideal_lattice(cyclotomic(4), 10**30 + 577, root_of_minus_one(10**30 + 577, 4))
    one = (element(GAUSSIAN_INT, (3, 1)),)
    yield IntegerLattice(GAUSSIAN_INT, one, lattice._gram_matrix(GAUSSIAN_INT, one))
    rng = random.Random(16)
    for rank in range(2, 17):
        yield _random_lattice(rng, rank, 12, knapsack=rank % 2 == 0)


def test_lll_output_carries_its_gram_schmidt_integers(monkeypatch):
    """lll_reduce's gso is _integral_gso of its output Gram, whether it
    started from the Gram matrix or from a stored gso; a second reduction
    starts from the stored data and returns the same basis."""
    passes = []
    real = lattice._integral_gso
    monkeypatch.setattr(lattice, "_integral_gso", lambda gram: passes.append(gram) or real(gram))
    for lat in _gso_cases():
        red = lll_reduce(lat)
        assert red.gso == _gso_of(red), lat.ring.name
        passes.clear()
        again = lll_reduce(red)
        assert not passes
        assert again.basis == red.basis and again.gso == red.gso
        fresh = lll_reduce(IntegerLattice(lat.ring, red.basis, red.gram))
        assert fresh.gso == red.gso and fresh.basis == red.basis
        assert lll_reduce(lat, Fraction(3, 4)).gso == _gso_of(lll_reduce(lat, Fraction(3, 4)))


def test_enumeration_takes_the_scaled_gso_from_lll(monkeypatch):
    """_short_vectors hands _enum_coords LLL's (d, lam) with the ring's
    Gram factor s divided out, d[i] by s^i and lam[i][j] by s^(j+1); that
    equals the data of the scaled Gram, so no second pass is taken."""
    seen = []
    real = lattice._enum_coords

    def spy(gram, radius, shrink, gso):
        seen.append((gram, gso))
        return real(gram, radius, shrink, gso)

    monkeypatch.setattr(lattice, "_enum_coords", spy)
    for k in range(1, 5):
        svp_enumerate(prime_ideal_lattice(cyclotomic(k), 97, root_of_minus_one(97, k)))
    svp_enumerate(prime_ideal_lattice(QUARTIC_THETA, 71, 9))
    assert len(seen) == 5
    for gram, gso in seen:
        d, lam = lattice._integral_gso(gram)
        assert gso == (d, lam)


@pytest.mark.parametrize("source", [cyclotomic(k) for k in range(1, 6)],
                         ids=lambda ring: ring.name)
def test_lifted_block_gram_equals_the_computed_gram(source):
    """From a cyclotomic source lift_lattice_basis reads the Gram matrix
    off the block structure; it equals the one computed from the lifted
    basis, for every target up to level 5."""
    rng = random.Random(source.degree)
    d = source.degree
    basis = tuple(element(source, [rng.randrange(-10**40, 10**40) for _ in range(d)])
                  for _ in range(d))
    lat = IntegerLattice(source, basis, lattice._gram_matrix(source, basis), (97, None))
    for k in range(source.cyclo_level, 6):
        target = cyclotomic(k)
        tower = lift_lattice_basis(lat, target)
        assert tower.basis == lattice._zeta_multiples(lat, target)
        assert tower.gram == lattice._gram_matrix(target, tower.basis)
        assert tower.ideal_meta == (97, None)


def test_lll_keeps_a_reduced_basis(monkeypatch):
    red = lll_reduce(prime_ideal_lattice(cyclotomic(3), 97, root_of_minus_one(97, 3)))
    rebuilt = []
    real = lattice._apply_transform
    monkeypatch.setattr(lattice, "_apply_transform",
                        lambda *args: rebuilt.append(args) or real(*args))
    again = lll_reduce(red)
    assert again.basis is red.basis and again.gram is red.gram
    assert again.transform == tuple(tuple(int(i == j) for j in range(8)) for i in range(8))
    assert rebuilt == []


@pytest.mark.parametrize("ring", [GAUSSIAN_INT, QUAD_SQRT2, CYCLO_EIGHTH, QUARTIC_THETA,
                                  cyclotomic(4)])
def test_gram_matrix_from_the_nonzero_gram_entries(ring):
    if ring.cyclo_level is not None:
        assert all(row == ((i, ring.degree),) for i, row in enumerate(ring.gram_nonzero))
    rng = random.Random(ring.degree)
    basis = [element(ring, [rng.randrange(-10**30, 10**30) for _ in range(ring.degree)])
             for _ in range(5)]
    assert lattice._gram_matrix(ring, basis) == tuple(
        tuple(canonical_inner(a, b) for b in basis) for a in basis
    )


def test_contains_rejects_other_ring():
    lat = prime_ideal_lattice(QUAD_SQRT2, 7, 4)
    assert not contains(lat, integer(GAUSSIAN_INT, 7))


def test_basis_rows_vanish_at_the_root():
    # two-element representation: every basis element reduces to 0 mod p at r
    for ring, p, r in (
        (QUAD_SQRT2, 89, 25),
        (CYCLO_EIGHTH, 89, 12),
        (GAUSSIAN_INT, 13, 5),
        (QUARTIC_THETA, 23, min(r for r in range(23) if (pow(r, 4, 23) + 4 * r * r + 2) % 23 == 0)),
    ):
        lat = prime_ideal_lattice(ring, p, r)
        assert lat.ideal_meta == (p, r)
        for b in lat.basis:
            assert sum(c * pow(r, j, p) for j, c in enumerate(b.coeffs)) % p == 0

