import math
import random
import re
import sys

import pytest

from cyclosvp import idealsvp, rings
from cyclosvp.errors import ConsistencyError, DomainError
from cyclosvp.idealsvp import (
    bounds,
    canonical_torsion_rep,
    cornacchia,
    fourth_root_decimal,
    iroot_floor,
    lambda1_sq_zsqrt2,
    lambda1_squared,
    lift_shortest,
    prime_ideals_up_to_norm,
    result_to_json,
    shortest_generator,
    sqrt_decimal,
    svsg_verify,
    theta_roots,
    zeta16_lift_check,
)
from cyclosvp.lattice import (
    SvpCertificate,
    canonical_coeffs,
    prime_ideal_lattice,
    principal_ideal_lattice,
    svp_enumerate,
)
from cyclosvp.ntheory import MAX_LEVEL, is_prime, root_of_minus_one, sieve_primes, sqrt_mod
from cyclosvp.pell import solve_pell
from cyclosvp.rings import (
    CYCLO_EIGHTH,
    GAUSSIAN_INT,
    QUAD_SQRT2,
    QUARTIC_THETA,
    canonical_sq_length,
    cyclotomic,
    element,
    field_norm,
    lift_element,
    mul,
    torsion_generator,
    unit,
)


def torsion_orbit(w):
    out = {w.coeffs, tuple(-c for c in w.coeffs)}
    t = torsion_generator(w.ring)
    cur = w
    for _ in range(w.ring.torsion_order - 1):
        cur = mul(cur, t)
        out.add(cur.coeffs)
        out.add(tuple(-c for c in cur.coeffs))
    return out


# --- cornacchia -----------------------------------------------------------


@pytest.mark.parametrize(
    "p,d,expected", [(13, 1, (3, 2)), (11, 2, (3, 1)), (89, 1, (8, 5))]
)
def test_cornacchia_examples(p, d, expected):
    assert cornacchia(p, d) == expected


def test_cornacchia_exhaustive_small():
    for p in sieve_primes(3000):
        if p % 4 == 1:
            a, b = cornacchia(p, 1)
            assert a * a + b * b == p and a > b > 0
        if p % 8 in (1, 3) and p > 2:
            a, b = cornacchia(p, 2)
            assert a * a + 2 * b * b == p and a > 0 and b > 0


def test_cornacchia_class_violations():
    with pytest.raises(DomainError):
        cornacchia(7, 1)
    with pytest.raises(DomainError):
        cornacchia(7, 2)
    with pytest.raises(DomainError):
        cornacchia(13, 3)


# --- lambda1 over the tower -------------------------------------------------


def test_lambda1_89_level2():
    res = lambda1_squared(89, 2)
    assert res.lambda1_sq == 44
    assert res.witness.vector.coeffs == (0, 1, 1, 3)
    assert res.witness.cross_checked
    assert res.bound_new_radicand == 2**5 * 89
    assert res.bound_minkowski_radicand == 2**8 * 89


def test_lambda1_13_level1():
    res = lambda1_squared(13, 1)
    assert res.lambda1_sq == 26
    assert res.witness.vector.coeffs in torsion_orbit(element(GAUSSIAN_INT, (3, 2)))


def test_lambda1_7_level3():
    res = lambda1_squared(7, 3)
    assert res.lambda1_sq == 24  # 2^3 * a_7
    assert res.witness.cross_checked


def test_lambda1_11_level2():
    res = lambda1_squared(11, 2)
    assert res.lambda1_sq == 44  # 2^2 * 11
    assert res.witness.vector.coeffs in torsion_orbit(element(CYCLO_EIGHTH, (3, 1, 0, 1)))


def test_lambda1_13_level3():
    assert lambda1_squared(13, 3).lambda1_sq == 104  # 2^3 * 13


def test_lambda1_low_level_special_cases():
    res = lambda1_squared(11, 1)  # 3 mod 8: inert in Z[i]
    assert res.lambda1_sq == 2 * 11 * 11
    assert res.note and "inert" in res.note
    res = lambda1_squared(41, 1)  # 9 mod 16 at level 1: split Z[i] case
    assert res.lambda1_sq == 82
    assert res.note


def test_lambda1_domain_errors():
    with pytest.raises(DomainError):
        lambda1_squared(31, 2)  # 15 mod 16, no formula
    with pytest.raises(DomainError):
        lambda1_squared(17, 2)  # 1 mod 16, no formula
    with pytest.raises(DomainError):
        lambda1_squared(7, 2)  # 7 mod 16 needs n >= 3
    with pytest.raises(DomainError):
        lambda1_squared(89, 0)
    with pytest.raises(DomainError):
        lambda1_squared(91, 2)


def test_lambda1_root_hint():
    for hint in (12, 37, 52, 77):
        res = lambda1_squared(89, 2, root_hint=hint)
        assert res.lambda1_sq == 44
    with pytest.raises(DomainError):
        lambda1_squared(89, 2, root_hint=34)


def test_root_hint_selects_conjugate_in_gaussian_case():
    # for 13 = (3+2i)(3-2i): the two square roots of -1 pick conjugate ideals
    r0 = (-3 * pow(2, -1, 13)) % 13
    a = lambda1_squared(13, 1, root_hint=r0)
    b = lambda1_squared(13, 1, root_hint=13 - r0)
    assert a.lambda1_sq == b.lambda1_sq == 26
    assert a.witness.vector.coeffs != b.witness.vector.coeffs
    with pytest.raises(DomainError):
        lambda1_squared(13, 1, root_hint=3)
    no_root = "p = 3 (mod 8): the base ideal has no degree-1 root"
    for n in (1, 2):  # 3 mod 8: no degree-1 root exists, at n = 1 (p inert) either
        with pytest.raises(DomainError, match=re.escape(no_root)):
            lambda1_squared(11, n, root_hint=5)
        with pytest.raises(DomainError, match=re.escape(no_root)):
            lambda1_squared(11, n, root_hint=1)
    assert lambda1_squared(11, 1).lambda1_sq == 2 * 11 * 11
    with pytest.raises(DomainError, match="chooses its own ideal"):
        lambda1_squared(17, 3, root_hint=12345, enumerate_fallback=True)
    with pytest.raises(DomainError, match="chooses its own ideal"):
        lambda1_squared(17, 3, root_hint=root_of_minus_one(17, 3), enumerate_fallback=True)


def test_witness_norm_is_power_of_p():
    for p, n in ((89, 2), (13, 2), (11, 2), (7, 3), (23, 3), (41, 3)):
        res = lambda1_squared(p, n)
        w = res.witness.vector
        assert canonical_sq_length(w) == res.lambda1_sq
        nrm = abs(field_norm(w))
        assert nrm > 1
        while nrm % p == 0:
            nrm //= p
        assert nrm == 1


def test_enumeration_fallback_for_open_classes():
    res = lambda1_squared(31, 2, enumerate_fallback=True)
    assert res.note and "fallback" in res.note
    assert res.bound_new_radicand is None
    # 31 = 15 (mod 16): norm 961 ideal; AM-GM lower bound must hold
    assert res.lambda1_sq >= 4 * 31  # d * N^(2/d) = 4 * 31
    res17 = lambda1_squared(17, 3, enumerate_fallback=True)
    # 17 = 1 (mod 16) is genuinely open: enumeration beats 2^n * a_p here
    assert res17.lambda1_sq == 24 < 8 * solve_pell(17).a


def test_degree2_fallback_lattice_is_an_ideal_with_box_scan_minimum():
    import itertools

    from cyclosvp.idealsvp import _degree2_prime_lattice
    from cyclosvp.lattice import contains, gram_det
    from cyclosvp.rings import CYCLO_EIGHTH as Z8
    from cyclosvp.rings import element as make

    lat = _degree2_prime_lattice(31, 2)
    # index p^2 and closure under multiplication by zeta: a genuine ideal
    assert gram_det(lat.gram) == 31**4 * 256
    zeta = make(Z8, (0, 1, 0, 0))
    for b in lat.basis:
        assert contains(lat, mul(b, zeta))
    # independent box scan: smallest canonical length over |c_i| <= 6
    best = None
    for coeffs in itertools.product(range(-6, 7), repeat=4):
        if not any(coeffs):
            continue
        v = make(Z8, coeffs)
        if contains(lat, v):
            best = min(best or 10**9, canonical_sq_length(v))
    res = lambda1_squared(31, 2, enumerate_fallback=True)
    assert best == res.lambda1_sq == 132


# --- Z[sqrt2] theorem -------------------------------------------------------


@pytest.mark.parametrize("p,expected", [(7, 18), (17, 38), (89, 214)])
def test_zsqrt2_examples(p, expected):
    assert lambda1_sq_zsqrt2(p) == expected


def test_zsqrt2_matches_enumeration_small():
    for p in sieve_primes(1000):
        if p % 8 not in (1, 7):
            continue
        lam = lambda1_sq_zsqrt2(p)
        lat = prime_ideal_lattice(QUAD_SQRT2, p, sqrt_mod(2, p))
        assert svp_enumerate(lat, lam).sq_length == lam


def test_zsqrt2_piecewise_branch_rule():
    """The first branch 2a_p^2 - p wins exactly when a_p < sqrt((sqrt2+1)p/2),
    i.e. (2 a_p^2 - p)^2 < 2 p^2 in exact integers."""
    for p in sieve_primes(3000):
        if p % 8 not in (1, 7):
            continue
        plus, minus = solve_pell(p, 1), solve_pell(p, -1)
        first, second = 2 * plus.a**2 - p, 2 * minus.a**2 + p
        assert first != second
        threshold_says_first = (2 * plus.a**2 - p) ** 2 < 2 * p * p
        assert (first < second) == threshold_says_first


def test_zsqrt2_class_violation():
    with pytest.raises(DomainError):
        lambda1_sq_zsqrt2(5)


# --- shortest generator / SVSG ---------------------------------------------


def test_shortest_generator_examples():
    c = shortest_generator(13, GAUSSIAN_INT, 5)
    assert c.sq_length == 26 and c.cross_checked
    assert c.vector.coeffs in torsion_orbit(element(GAUSSIAN_INT, (3, 2)))
    c = shortest_generator(7, QUAD_SQRT2, 4)
    assert c.sq_length == 18
    assert c.vector.coeffs in torsion_orbit(element(QUAD_SQRT2, (1, -2)))
    c = shortest_generator(89, CYCLO_EIGHTH, 12)
    assert c.sq_length == 44
    assert abs(field_norm(c.vector)) == 89


@pytest.mark.parametrize(
    "ring, primes, root",
    [
        (QUAD_SQRT2, (7, 17, 23, 41, 89), lambda p: sqrt_mod(2, p)),
        (CYCLO_EIGHTH, (17, 41, 89, 97), lambda p: root_of_minus_one(p, 2)),
        (QUARTIC_THETA, (7, 23, 71), lambda p: theta_roots(p)[0]),
    ],
    ids=("zsqrt2", "zeta8", "theta16"),
)
def test_window_min_is_reached_from_any_unit_multiple(ring, primes, root):
    for p in primes:
        g = shortest_generator(p, ring, root(p)).vector
        min_sq, _, g_best = idealsvp._window_min(g)
        for k in range(-25, 26):
            sq, _, best = idealsvp._window_min(mul(g, unit(ring, 0, k)))
            assert (sq, best.coeffs) == (min_sq, g_best.coeffs), (p, k)


def test_shortest_generator_rejects_other_rings():
    with pytest.raises(DomainError):
        shortest_generator(17, cyclotomic(3), 2)


def test_svsg_verify_all_rings_norm100():
    for ring in (GAUSSIAN_INT, QUAD_SQRT2, CYCLO_EIGHTH, QUARTIC_THETA):
        rep = svsg_verify(ring, 100)
        assert rep.passed, rep.mismatches
        assert len(rep.entries) > 10


@pytest.mark.parametrize("ring, norm", [(GAUSSIAN_INT, 9), (QUARTIC_THETA, 81)],
                         ids=["zi", "theta16"])
def test_svsg_inert_ideal_reports_p_not_its_norm(ring, norm):
    (entry,) = [e for e in svsg_verify(ring, norm).entries if e.ideal == "(3) inert"]
    assert (entry.p, entry.norm, entry.match) == (3, norm, True)


def test_svsg_inventory_gaussian():
    ideals = prime_ideals_up_to_norm(GAUSSIAN_INT, 100)
    norms = sorted(n for _, n, _ in ideals)
    # ramified (2), split primes p = 1 (mod 4) twice each, inert p^2
    assert norms.count(2) == 1
    for p in (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97):
        assert norms.count(p) == 2
    for q in (3, 7):
        assert norms.count(q * q) == 1
    assert 11 * 11 > 100 or norms.count(121) == 1


def test_svsg_inventory_theta():
    ideals = prime_ideals_up_to_norm(QUARTIC_THETA, 500)
    norms = [n for _, n, _ in ideals]
    for p in (7, 23, 71, 103, 151, 167, 199, 263):  # 7 mod 16: split completely
        assert norms.count(p) == 4, p
    for p in (17, 97, 113, 193, 241, 257, 337, 353, 401, 433, 449):  # 1 mod 16
        assert norms.count(p) == 4, p
    assert norms.count(2) == 1  # ramified (theta)
    assert norms.count(81) == 1  # 3 is inert
    # no prime = 9, 15 (mod 16) has p^2 <= 500 (31^2 = 961 > 500)
    assert not any(n == q * q for n in norms for q in (31, 41, 47))


def test_svsg_degree2_ideals_zeta8():
    rep = svsg_verify(CYCLO_EIGHTH, 500)
    assert rep.passed
    degree2 = [e for e in rep.entries if e.norm == e.p * e.p]
    assert {e.p for e in degree2} == {3, 5, 7, 11, 13, 19}
    # two conjugate ideals per such prime
    assert all(sum(1 for e in degree2 if e.p == q) == 2 for q in (3, 5, 7, 11, 13, 19))


# --- lifting ----------------------------------------------------------------


def test_lift_shortest_examples():
    base = lambda1_squared(13, 1).witness
    lifted = lift_shortest(base, 2)
    assert lifted.sq_length == 52 and lifted.cross_checked
    assert lift_shortest(base, 1) == base  # identity lift
    c89 = lambda1_squared(89, 2).witness
    top = lift_shortest(c89, 4)
    assert top.sq_length == 44 * 4 == 2**4 * 11
    assert top.cross_checked


def test_lift_shortest_errors():
    cert = lambda1_squared(89, 2).witness
    with pytest.raises(DomainError):
        lift_shortest(cert, 1)
    with pytest.raises(ConsistencyError):  # a certificate that misstates its length
        lift_shortest(SvpCertificate(cert.vector, cert.sq_length + 1, cert.method, True), 3)


def test_lift_shortest_refuses_a_level_above_max_before_building_a_ring(monkeypatch):
    cert = lambda1_squared(89, 2).witness

    def refuse(k):
        raise AssertionError(f"cyclotomic({k}) built")

    monkeypatch.setattr(rings, "cyclotomic", refuse)
    monkeypatch.setattr(idealsvp, "cyclotomic", refuse)
    with pytest.raises(DomainError, match=f"must be <= {MAX_LEVEL}"):
        lift_shortest(cert, MAX_LEVEL + 1)


def test_lift_shortest_builds_the_base_ideal_only_when_it_enumerates(monkeypatch):
    built = []
    original = idealsvp.generator_lattice

    def counted(alpha):
        built.append(alpha.ring.name)
        return original(alpha)

    monkeypatch.setattr(idealsvp, "generator_lattice", counted)
    above_cap = lift_shortest(lambda1_squared(89, 5).witness, 6)
    assert built == [] and not above_cap.cross_checked
    assert lift_shortest(lambda1_squared(89, 2).witness, 3).cross_checked
    assert built == ["zeta8"]


def test_zeta16_lift_checks():
    rep = zeta16_lift_check(7)
    assert (rep.subfield_sq, rep.extension_sq) == (12, 24) and rep.passed
    rep = zeta16_lift_check(23)
    assert (rep.subfield_sq, rep.extension_sq) == (20, 40) and rep.passed
    rep = zeta16_lift_check(71)
    # a_71 = 11 (121 - 2*25 = 71), so 4*a = 44 and the extension doubles it
    assert (rep.subfield_sq, rep.extension_sq) == (44, 88) and rep.passed
    assert rep.four_a_p == rep.subfield_sq
    with pytest.raises(DomainError):
        zeta16_lift_check(89)


@pytest.mark.parametrize("ring, p", [(QUAD_SQRT2, 89), (QUAD_SQRT2, 7),
                                     (QUARTIC_THETA, 7), (QUARTIC_THETA, 71)])
def test_lift_shortest_from_generator_rings(ring, p):
    """The lift of a Z[sqrt2] or Z[theta16] witness is certified by
    re-enumerating the principal ideal of the lifted witness."""
    r = next(r for r in range(p) if sum(c * pow(r, j, p) for j, c in enumerate(ring.poly)) % p == 0)
    cert = shortest_generator(p, ring, r)
    for n in range(3, 5):
        target = cyclotomic(n)
        lifted = lift_shortest(cert, n)
        w = lift_element(cert.vector, target)
        ratio = target.degree // ring.degree
        assert lifted.sq_length == cert.sq_length * ratio and lifted.cross_checked
        assert lifted.vector == canonical_torsion_rep(w)
        assert svp_enumerate(principal_ideal_lattice(target, w)).sq_length == lifted.sq_length


# --- torsion representatives -------------------------------------------------


@pytest.mark.parametrize("n", range(1, 9))
def test_canonical_torsion_rep_is_the_least_of_all_2d_rotations(n):
    """Brute force over the whole torsion orbit zeta^j * w, j < 2d, by
    generic mul."""
    ring = cyclotomic(n)
    d = ring.degree
    zeta = element(ring, [0, 1] + [0] * (d - 2))
    rng = random.Random(n)
    samples = [
        element(ring, [rng.randint(-3, 3) for _ in range(d)]),
        element(ring, [1] * d),  # rotations tie up to sign
        element(ring, [0] * (d - 1) + [-2]),
    ]
    if d > 2:
        sparse = [0] * d
        for j in rng.sample(range(d), 3):
            sparse[j] = rng.choice((-5, -1, 1, 4))
        samples.append(element(ring, sparse))
    for w in samples:
        best, cur = None, w
        for _ in range(2 * d):
            cand = canonical_coeffs(cur.coeffs)
            best = cand if best is None or cand < best else best
            cur = mul(cur, zeta)
        assert cur == w
        assert canonical_torsion_rep(w).coeffs == best


def _sparse_witnesses(ring, rng):
    """Random sparse elements, and periodic ones whose rotations tie."""
    d = ring.degree
    out = []
    for size in (1, 2, 5):
        c = [0] * d
        for j in rng.sample(range(d), size):
            c[j] = rng.choice((-5, -1, 1, 4))
        out.append(c)
    for period in (d // 4, d // 64):  # c[i + period] = +-c[i]
        block = [0] * period
        block[rng.randrange(period)] = 3
        block[rng.randrange(period)] = -1
        sign = rng.choice((1, -1))
        out.append([v * sign ** (i // period) for i, v in enumerate(block * (d // period))])
    return [element(ring, c) for c in out]


@pytest.mark.parametrize("n", [9, 10, 11])
def test_canonical_torsion_rep_of_sparse_witnesses_at_high_levels(n):
    """Brute force over the rotations zeta^j * w, j < d, by zeta_shift;
    sign normalization covers zeta^(j+d) * w = -zeta^j * w."""
    ring = cyclotomic(n)
    for w in _sparse_witnesses(ring, random.Random(n)):
        best = min(canonical_coeffs(rings.zeta_shift(w, j).coeffs)
                   for j in range(ring.degree))
        assert canonical_torsion_rep(w).coeffs == best


def test_canonical_torsion_rep_off_the_cyclotomic_rings_is_the_sign():
    for ring in (QUAD_SQRT2, QUARTIC_THETA):
        w = element(ring, [-3, 1, 0, 2][: ring.degree])
        assert canonical_torsion_rep(w).coeffs == tuple(-c for c in w.coeffs)
        assert canonical_torsion_rep(-w) == canonical_torsion_rep(w)


def test_canonical_torsion_rep_makes_no_ring_multiplication(monkeypatch):
    original = rings.mul
    count = [0]

    def counted(*args):
        count[0] += 1
        return original(*args)

    for key, mod in list(sys.modules.items()):
        if mod is not None and key.startswith("cyclosvp"):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    for n in (1, 3, 6):
        ring = cyclotomic(n)
        canonical_torsion_rep(element(ring, list(range(1, ring.degree + 1))))
    assert count[0] == 0


# --- bounds -----------------------------------------------------------------


def test_bounds_89_level2():
    b = bounds(89, 2)
    assert b.lambda1_sq == 44
    assert b.new_bound_radicand == 2848 and b.minkowski_radicand == 22784
    assert b.lambda1_decimal == "6.63324958071"
    assert abs(float(b.bound_new_decimal) - 2848**0.25) < 1e-9
    assert abs(float(b.bound_minkowski_decimal) - 4 * 89**0.25) < 1e-9
    # the displayed approximations: ~7.31 and ~12.29
    assert abs(float(b.bound_new_decimal) - 7.31) < 0.005
    assert abs(float(b.bound_minkowski_decimal) - 12.29) < 0.005


def test_bounds_89_level3():
    b = bounds(89, 3)
    assert b.lambda1_sq == 88
    assert abs(float(b.lambda1_decimal) - math.sqrt(88)) < 1e-9
    assert abs(float(b.bound_new_decimal) - (2**7 * 89) ** 0.25) < 1e-9
    assert float(b.lambda1_decimal) < float(b.bound_new_decimal) < float(
        b.bound_minkowski_decimal
    )


def test_bounds_ordering_exact():
    for p in (41, 73, 89, 137, 7, 23, 71):
        label_min = 3 if p % 16 == 7 else 2
        for n in range(label_min, 5):
            b = bounds(p, n)
            assert b.lambda1_sq**2 < b.new_bound_radicand < b.minkowski_radicand


def test_bounds_class_guard():
    with pytest.raises(DomainError):
        bounds(13, 2)
    with pytest.raises(DomainError):
        bounds(31, 2)
    with pytest.raises(DomainError):
        bounds(7, 2)


# --- helpers ----------------------------------------------------------------


def test_theta_roots():
    assert theta_roots(7) == [1, 3, 4, 6]
    for r in theta_roots(23):
        assert (pow(r, 4, 23) + 4 * r * r + 2) % 23 == 0
    assert theta_roots(41) == []  # 41 = 9 (mod 16): theta quartic has no roots
    assert theta_roots(5) == []
    for p in (21, 0, 2):  # the p = 1, 7 (mod 8) shortcut must not skip the test of p
        with pytest.raises(DomainError):
            theta_roots(p)


def test_decimal_helpers():
    assert sqrt_decimal(44) == "6.63324958071"
    assert fourth_root_decimal(2848) == "7.30524854173"
    # exact roots keep their form
    assert sqrt_decimal(4) == "2"
    assert sqrt_decimal(25600) == "160"
    assert sqrt_decimal(10**30) == "1.00000000000E+15"
    assert fourth_root_decimal(10**4) == "10"
    assert iroot_floor(81, 4) == 3
    assert iroot_floor(80, 4) == 2
    assert iroot_floor(0, 3) == 0


def test_iroot_floor_exact_at_any_size():
    assert iroot_floor(10**400, 4) == 10**100
    assert iroot_floor(10**400 - 1, 4) == 10**100 - 1
    for r, k in ((3, 4), (12345, 2), (7, 13), (10**50 + 7, 3), (2**521 - 1, 5)):
        x = r**k
        assert iroot_floor(x - 1, k) == r - 1
        assert iroot_floor(x, k) == r
        assert iroot_floor(x + 1, k) == r
    assert iroot_floor(1, 7) == 1 and iroot_floor(10**400, 1) == 10**400
    with pytest.raises(DomainError):
        iroot_floor(-1, 2)
    with pytest.raises(DomainError):
        iroot_floor(5, 0)


# primes p = 7 (mod 16) just above 10^320 and 10^400: 2 is a square mod p
# and the theta quartic splits, so both generator rings apply
LARGE_7MOD16 = (10**320 + 1303, 10**400 + 7191)


@pytest.mark.parametrize("p", LARGE_7MOD16, ids=("1e320", "1e400"))
def test_shortest_generator_exact_at_hundreds_of_digits(p):
    assert p % 16 == 7 and is_prime(p)
    cert = shortest_generator(p, QUAD_SQRT2, sqrt_mod(2, p))
    assert abs(field_norm(cert.vector)) == p
    assert cert.sq_length == canonical_sq_length(cert.vector) == lambda1_sq_zsqrt2(p)
    cert = shortest_generator(p, QUARTIC_THETA, theta_roots(p)[0])
    assert abs(field_norm(cert.vector)) == p
    assert cert.sq_length == canonical_sq_length(cert.vector) == 4 * solve_pell(p).a


def test_result_json_shape():
    data = result_to_json(lambda1_squared(89, 2))
    assert data["lambda1_squared"] == "44"
    assert data["a_p"] == "11" and data["b_p"] == "4"
    assert data["lambda1_decimal"] == "6.63324958071"
    assert data["witness"]["ring"] == "zeta8"
    assert data["certified"] is True
    data = result_to_json(lambda1_squared(13, 1))
    assert data["a_p"] is None and data["bound_new_decimal"] is None


def test_formula_enumeration_cross_module_identity():
    # Theorem form: for p = 7, 9 (mod 16), lambda1^2 = 2^n a_p
    for p in (41, 73, 89, 97 + 16):  # 113 = 1 (mod 16) -> excluded below
        if p % 16 not in (7, 9):
            continue
        res = lambda1_squared(p, 2)
        assert res.lambda1_sq == 4 * solve_pell(p).a
    for p in (7, 23, 71):
        res = lambda1_squared(p, 3)
        assert res.lambda1_sq == 8 * solve_pell(p).a
