import cmath
import json
import math
import random

import pytest

from cyclosvp import rings
from cyclosvp.errors import DomainError
from cyclosvp.rings import (
    CYCLO_EIGHTH,
    GAUSSIAN_INT,
    QUAD_SQRT2,
    QUARTIC_THETA,
    apply_automorphism,
    as_sqrt2_pair,
    automorphism_indices,
    canonical_inner,
    canonical_sq_length,
    conjugate,
    cyclotomic,
    element,
    element_from_json,
    element_to_json,
    field_norm,
    integer,
    lift_element,
    mul,
    one,
    power,
    ring_by_name,
    unit,
    zeta_shift,
)

ALL_RINGS = (GAUSSIAN_INT, QUAD_SQRT2, CYCLO_EIGHTH, QUARTIC_THETA, cyclotomic(3), cyclotomic(4))


def rand_elem(ring, rng, span=9):
    return element(ring, [rng.randint(-span, span) for _ in range(ring.degree)])


# --- multiplication -------------------------------------------------------


def test_mul_fundamental_unit_norm():
    x = element(QUAD_SQRT2, (1, 1))
    y = element(QUAD_SQRT2, (1, -1))
    assert mul(x, y) == integer(QUAD_SQRT2, -1)


def test_mul_gaussian():
    assert mul(element(GAUSSIAN_INT, (3, 2)), element(GAUSSIAN_INT, (3, -2))) == integer(
        GAUSSIAN_INT, 13
    )


def test_conjugate_product_chain_over_89():
    x = element(CYCLO_EIGHTH, (0, 1, 1, 3))
    prod = one(CYCLO_EIGHTH)
    for i in automorphism_indices(CYCLO_EIGHTH):
        prod = mul(prod, apply_automorphism(x, i))
    assert prod == integer(CYCLO_EIGHTH, 89)


def _mul_by_long_division(x, y):
    """Reference product: the full polynomial product, then the remainder
    of dividing by the monic defining polynomial, one degree at a time."""
    poly, d = x.ring.poly, x.ring.degree
    prod = [0] * (2 * d - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            prod[i + j] += a * b
    for k in range(2 * d - 2, d - 1, -1):
        q = prod[k]
        for t in range(d + 1):
            prod[k - d + t] -= q * poly[t]
        assert prod[k] == 0
    return prod[:d]


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_mul_equals_long_division_by_the_defining_polynomial(ring):
    rng = random.Random(7 * ring.degree)
    for _ in range(200):
        x, y = rand_elem(ring, rng, 10**12), rand_elem(ring, rng, 10**12)
        assert list(mul(x, y).coeffs) == _mul_by_long_division(x, y)


def test_mul_ring_mismatch():
    with pytest.raises(DomainError):
        mul(integer(GAUSSIAN_INT, 1), integer(QUAD_SQRT2, 1))


def test_zeta_shift_is_multiplication_by_a_power_of_zeta():
    rng = random.Random(11)
    for k in range(1, 6):
        ring = cyclotomic(k)
        d = ring.degree
        zeta = element(ring, [0, 1] + [0] * (d - 2))
        x = rand_elem(ring, rng)
        for e in range(-2 * d, 4 * d + 1):
            assert zeta_shift(x, e) == mul(x, power(zeta, e % (2 * d)))


def test_zeta_shift_needs_a_cyclotomic_ring():
    for ring in (QUAD_SQRT2, QUARTIC_THETA):
        with pytest.raises(DomainError):
            zeta_shift(one(ring), 1)


# --- automorphisms --------------------------------------------------------


def test_sigma7_on_zeta8():
    z = element(CYCLO_EIGHTH, (0, 1, 0, 0))
    assert apply_automorphism(z, 7) == element(CYCLO_EIGHTH, (0, 0, 0, -1))


def test_tau2_on_sqrt2():
    x = element(QUAD_SQRT2, (3, 1))
    assert apply_automorphism(x, 3) == element(QUAD_SQRT2, (3, -1))


def test_sigma3_squared_is_identity_on_zeta8():
    x = element(CYCLO_EIGHTH, (4, -1, 2, 7))
    assert apply_automorphism(apply_automorphism(x, 3), 3) == x


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_automorphism_group_law(ring):
    rng = random.Random(7)
    x = rand_elem(ring, rng)
    idx = automorphism_indices(ring)
    m = 2 * ring.degree if ring.cyclo_level else 16
    for i in idx:
        for j in idx:
            lhs = apply_automorphism(apply_automorphism(x, j), i)
            rhs = apply_automorphism(x, (i * j) % m)
            assert lhs == rhs, (ring.name, i, j)


def test_automorphism_rejects_even_index():
    with pytest.raises(DomainError):
        apply_automorphism(integer(CYCLO_EIGHTH, 1), 2)


# --- norms ----------------------------------------------------------------


def test_norm_examples():
    assert field_norm(element(GAUSSIAN_INT, (3, 2))) == 13
    assert field_norm(element(QUAD_SQRT2, (11, 4))) == 89
    assert field_norm(element(CYCLO_EIGHTH, (0, 1, 1, 3))) == 89
    assert field_norm(element(QUAD_SQRT2, (1, 1))) == -1


@pytest.mark.parametrize("ring", ALL_RINGS[:4])
def test_norm_multiplicative_10k_pairs(ring):
    rng = random.Random(ring.degree)
    for _ in range(10000):
        x = rand_elem(ring, rng, span=6)
        y = rand_elem(ring, rng, span=6)
        assert field_norm(mul(x, y)) == field_norm(x) * field_norm(y)


@pytest.mark.parametrize("ring,count", [(cyclotomic(3), 400), (cyclotomic(4), 60)])
def test_norm_multiplicative_high_levels(ring, count):
    rng = random.Random(ring.degree)
    for _ in range(count):
        x = rand_elem(ring, rng, span=3)
        y = rand_elem(ring, rng, span=3)
        assert field_norm(mul(x, y)) == field_norm(x) * field_norm(y)


# --- canonical lengths ----------------------------------------------------


def _numeric_embeddings(ring):
    """Complex images of the ring generator, one per embedding."""
    if ring is GAUSSIAN_INT:
        return [1j, -1j]
    if ring is QUAD_SQRT2:
        return [math.sqrt(2), -math.sqrt(2)]
    if ring is QUARTIC_THETA:
        s1, s3 = 2 * math.sin(math.pi / 8), 2 * math.sin(3 * math.pi / 8)
        return [1j * s1, 1j * s3, -1j * s1, -1j * s3]
    m = 2 * ring.degree
    return [cmath.exp(2j * cmath.pi * t / m) for t in range(1, m, 2)]


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_canonical_length_matches_numeric_embeddings(ring):
    rng = random.Random(17 + ring.degree)
    roots = _numeric_embeddings(ring)
    assert len(roots) == ring.degree
    for _ in range(50):
        x = rand_elem(ring, rng)
        numeric = sum(
            abs(sum(c * root**j for j, c in enumerate(x.coeffs))) ** 2 for root in roots
        )
        exact = canonical_sq_length(x)
        assert math.isclose(numeric, exact, rel_tol=1e-9, abs_tol=1e-6), (ring.name, x)


def test_canonical_length_examples():
    assert canonical_sq_length(one(CYCLO_EIGHTH)) == 4
    assert canonical_sq_length(element(CYCLO_EIGHTH, (0, 1, 1, 3))) == 44
    assert canonical_sq_length(element(QUAD_SQRT2, (1, 2))) == 18


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_cyclotomic_length_is_scaled_coefficient_norm(k):
    ring = cyclotomic(k)
    rng = random.Random(k)
    for _ in range(100):
        x = rand_elem(ring, rng)
        assert canonical_sq_length(x) == (1 << k) * sum(c * c for c in x.coeffs)


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_torsion_invariance_and_isometry(ring):
    rng = random.Random(3 * ring.degree)
    t = unit(ring, 1, 0)
    for _ in range(40):
        x = rand_elem(ring, rng)
        base = canonical_sq_length(x)
        y = x
        for _ in range(ring.torsion_order):
            y = mul(y, t)
            assert canonical_sq_length(y) == base
        for i in automorphism_indices(ring):
            assert canonical_sq_length(apply_automorphism(x, i)) == base


# The canonical forms as dense Gram matrices, with the values derived from
# them: gram_scale, torsion_order, has_sqrt2.
_DENSE_FORMS = {
    GAUSSIAN_INT: (((2, 0), (0, 2)), 2, 4, False),
    QUAD_SQRT2: (((2, 0), (0, 4)), 2, 2, True),
    CYCLO_EIGHTH: (tuple(tuple(4 * (i == j) for j in range(4)) for i in range(4)), 4, 8, True),
    QUARTIC_THETA: (((4, 0, -8, 0), (0, 8, 0, -24), (-8, 0, 24, 0), (0, -24, 0, 80)),
                    4, 2, True),
}


@pytest.mark.parametrize("ring", ALL_RINGS)
def test_ring_values_derive_from_its_form(ring):
    d = ring.degree
    if ring.cyclo_level is None or d <= 4:
        gram, scale, torsion, sqrt2 = _DENSE_FORMS[ring]
    else:
        gram = tuple(tuple(d * (i == j) for j in range(d)) for i in range(d))
        scale, torsion, sqrt2 = d, 2 * d, True
    assert ring.gram == gram
    assert (ring.gram_scale, ring.torsion_order, ring.has_sqrt2) == (scale, torsion, sqrt2)
    rng = random.Random(d)
    for _ in range(50):
        x, y = rand_elem(ring, rng), rand_elem(ring, rng)
        assert canonical_inner(x, y) == sum(
            a * gram[i][j] * b for i, a in enumerate(x.coeffs) for j, b in enumerate(y.coeffs)
        )


def _stored_ints(value) -> int:
    if isinstance(value, tuple):
        return sum(_stored_ints(v) for v in value)
    return 1


def test_a_cyclotomic_ring_stores_its_form_in_linear_size():
    ring = cyclotomic(16)
    d = ring.degree
    assert d == 1 << 16
    assert sum(len(row) for row in ring.gram_nonzero) == d
    assert all(row == ((i, d),) for i, row in enumerate(ring.gram_nonzero))
    # every slot together holds O(d) integers: no d x d or (d-1) x d table
    assert sum(_stored_ints(getattr(ring, name)) for name in type(ring).__slots__) < 5 * d


# --- units ----------------------------------------------------------------


def test_unit_examples():
    assert unit(QUAD_SQRT2, 0, 1) == element(QUAD_SQRT2, (1, 1))
    inv = unit(QUAD_SQRT2, 0, -1)
    assert inv == element(QUAD_SQRT2, (-1, 1))
    assert field_norm(inv) == -1
    z2 = unit(CYCLO_EIGHTH, 2, 0)
    assert z2 == element(CYCLO_EIGHTH, (0, 0, 1, 0))
    assert canonical_sq_length(z2) == 4


def test_unit_inverse_pairs():
    for ring in (QUAD_SQRT2, CYCLO_EIGHTH, QUARTIC_THETA, cyclotomic(3)):
        e = unit(ring, 0, 3)
        einv = unit(ring, 0, -3)
        assert mul(e, einv) == one(ring)
        assert abs(field_norm(e)) == 1


def test_unit_eps_unavailable_in_gaussian():
    with pytest.raises(DomainError):
        unit(GAUSSIAN_INT, 0, 1)


def _totally_positive_sqrt2(x) -> bool:
    u, v = x.coeffs
    def positive(a, b):  # sign of a + b*sqrt2
        if a >= 0 and b >= 0:
            return a > 0 or b > 0
        if a <= 0 and b <= 0:
            return False
        if a > 0:
            return a * a > 2 * b * b
        return 2 * b * b > a * a
    return positive(u, v) and positive(u, -v)


def test_totally_positive_units_are_even_eps_powers():
    """A unit of Z[sqrt2] is totally positive iff it is (1+sqrt2)^(2k)."""
    for n in range(-20, 21):
        for sign in (0, 1):
            u = unit(QUAD_SQRT2, sign, n)
            expected = sign == 0 and n % 2 == 0
            assert _totally_positive_sqrt2(u) == expected, (sign, n)


# --- lifting --------------------------------------------------------------


def test_lift_examples():
    s2 = element(QUAD_SQRT2, (0, 1))
    assert lift_element(s2, CYCLO_EIGHTH) == element(CYCLO_EIGHTH, (0, 1, 0, -1))
    g = element(GAUSSIAN_INT, (3, 2))
    lifted = lift_element(g, CYCLO_EIGHTH)
    assert lifted == element(CYCLO_EIGHTH, (3, 0, 2, 0))
    assert canonical_sq_length(g) == 26 and canonical_sq_length(lifted) == 52
    for ring in ALL_RINGS:
        for target in ALL_RINGS:
            try:
                img = lift_element(one(ring), target)
            except DomainError:
                continue
            assert img == one(target)


def test_lift_is_ring_homomorphism():
    rng = random.Random(5)
    pairs = [
        (GAUSSIAN_INT, CYCLO_EIGHTH),
        (QUAD_SQRT2, CYCLO_EIGHTH),
        (QUAD_SQRT2, QUARTIC_THETA),
        (QUARTIC_THETA, cyclotomic(3)),
        (CYCLO_EIGHTH, cyclotomic(4)),
        (GAUSSIAN_INT, cyclotomic(3)),
    ]
    for src, dst in pairs:
        ratio = dst.degree // src.degree
        for _ in range(30):
            x = rand_elem(src, rng)
            y = rand_elem(src, rng)
            fx, fy = lift_element(x, dst), lift_element(y, dst)
            assert lift_element(mul(x, y), dst) == mul(fx, fy)
            assert lift_element(x + y, dst) == fx + fy
            assert canonical_sq_length(fx) == ratio * canonical_sq_length(x)


def test_lift_is_the_horner_image_of_the_generator():
    """The linear map through the cached basis images gives what Horner's
    rule at the generator's image gives, for every supported pair."""
    rng = random.Random(200)
    sources = (GAUSSIAN_INT, QUAD_SQRT2, CYCLO_EIGHTH, QUARTIC_THETA, cyclotomic(3),
               cyclotomic(4), cyclotomic(5))
    targets = sources + (cyclotomic(6),)
    pairs = 0
    for src in sources:
        for dst in targets:
            if dst is src or dst.degree < src.degree:
                continue
            try:
                gen = rings._generator_image(src, dst)
            except DomainError:
                continue
            pairs += 1
            for span in (9, 10**200):
                x = rand_elem(src, rng, span)
                assert lift_element(x, dst) == rings._eval_poly(x.coeffs, gen)
    assert pairs == 25


def test_sqrt2_image_squares_to_two():
    for dst in (CYCLO_EIGHTH, QUARTIC_THETA, cyclotomic(3), cyclotomic(4)):
        img = lift_element(element(QUAD_SQRT2, (0, 1)), dst)
        assert mul(img, img) == integer(dst, 2)


def test_lift_without_embedding_errors():
    with pytest.raises(DomainError):
        lift_element(element(GAUSSIAN_INT, (0, 1)), QUAD_SQRT2)
    with pytest.raises(DomainError):
        lift_element(element(GAUSSIAN_INT, (0, 1)), QUARTIC_THETA)
    with pytest.raises(DomainError):
        lift_element(element(CYCLO_EIGHTH, (0, 1, 0, 0)), GAUSSIAN_INT)
    with pytest.raises(DomainError):
        lift_element(element(QUARTIC_THETA, (0, 1, 0, 0)), CYCLO_EIGHTH)


# --- misc -----------------------------------------------------------------


def test_as_sqrt2_pair():
    assert as_sqrt2_pair(element(QUAD_SQRT2, (4, -3))) == (4, -3)
    # in zeta8: u + v(z - z^3)
    assert as_sqrt2_pair(element(CYCLO_EIGHTH, (11, 4, 0, -4))) == (11, 4)
    # in theta16: sqrt2 = t^2 + 2
    x = lift_element(element(QUAD_SQRT2, (5, 7)), QUARTIC_THETA)
    assert as_sqrt2_pair(x) == (5, 7)
    with pytest.raises(DomainError):
        as_sqrt2_pair(element(CYCLO_EIGHTH, (1, 1, 1, 1)))


def test_conjugate_fixes_norm_pairing():
    rng = random.Random(11)
    for ring in (GAUSSIAN_INT, CYCLO_EIGHTH, QUARTIC_THETA, cyclotomic(3)):
        for _ in range(20):
            x = rand_elem(ring, rng)
            prod = mul(x, conjugate(x))
            # x * conj(x) is fixed by conjugation and has nonnegative trace form
            assert conjugate(prod) == prod


def test_power_and_negative_power_guard():
    x = element(QUAD_SQRT2, (1, 1))
    assert power(x, 0) == one(QUAD_SQRT2)
    assert power(x, 3) == mul(mul(x, x), x)
    with pytest.raises(DomainError):
        power(x, -1)


def test_json_round_trip():
    x = element(QUARTIC_THETA, (12, -7, 0, 3))
    data = json.loads(json.dumps(element_to_json(x)))
    assert element_from_json(data) == x
    assert data["coeffs"] == ["12", "-7", "0", "3"]


def test_ring_by_name():
    assert ring_by_name("zi") is GAUSSIAN_INT
    assert ring_by_name("zeta8") is CYCLO_EIGHTH
    assert ring_by_name("zeta16") is cyclotomic(3)
    assert ring_by_name("zeta32") is cyclotomic(4)
    with pytest.raises(DomainError):
        ring_by_name("zeta12")


def test_cyclotomic_aliases():
    assert cyclotomic(1) is GAUSSIAN_INT
    assert cyclotomic(2) is CYCLO_EIGHTH
    with pytest.raises(DomainError):
        cyclotomic(0)
