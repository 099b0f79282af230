"""The lift check enumerates each lifted ideal on the basis lifted from
the LLL-reduced base, zeta^j * b_i, and never LLL-reduces a rank-8 or
rank-16 HNF whose diagonal carries p.  For a covered class that
enumeration only checks the printed vector, the torsion representative
of the lifted base witness."""

import pytest

from cyclosvp import idealsvp, lattice
from cyclosvp.errors import ConsistencyError
from cyclosvp.idealsvp import lambda1_squared, lift_shortest, shortest_generator
from cyclosvp.lattice import (
    SvpCertificate,
    canonical_coeffs,
    generator_lattice,
    hnf_rows,
    lift_ideal_lattice,
    lift_lattice_basis,
    lll_reduce,
    prime_ideal_from_factor,
    prime_ideal_lattice,
    principal_ideal_lattice,
    svp_enumerate,
)
from cyclosvp.ntheory import class_label, classify_prime, sieve_primes
from cyclosvp.rings import (
    CYCLO_EIGHTH,
    GAUSSIAN_INT,
    QUAD_SQRT2,
    QUARTIC_THETA,
    canonical_inner,
    cyclotomic,
    element,
    mul,
    zeta_shift,
)


def _roots(ring, p):
    return [r for r in range(p)
            if sum(c * pow(r, j, p) for j, c in enumerate(ring.poly)) % p == 0]


def _record(monkeypatch, name, *modules):
    """Wrap the function ``name`` in each module; returns the list of the
    lattices it is called with."""
    calls = []
    real = getattr(lattice, name)

    def record(lat, *args, **kwargs):
        calls.append(lat)
        return real(lat, *args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, record, raising=False)
    return calls


def _same_lattice_and_svp(tower, base, target):
    """tower spans lift_ideal_lattice(base, target), carries its exact
    Gram matrix, and enumeration on it finds what it finds on the HNF."""
    hnf = lift_ideal_lattice(base, target)
    assert tower.ring is target
    assert hnf_rows(tower.rows(), target.degree) == hnf.rows()
    assert tower.gram == tuple(tuple(canonical_inner(a, b) for b in tower.basis)
                               for a in tower.basis)
    on_hnf, on_tower = svp_enumerate(hnf), svp_enumerate(tower)
    assert on_tower.vector.coeffs == on_hnf.vector.coeffs
    assert on_tower.sq_length == on_hnf.sq_length
    return on_tower


@pytest.mark.parametrize("source, primes", [
    (GAUSSIAN_INT, (5, 13, 89)),
    (QUAD_SQRT2, (7, 17, 89)),
    (CYCLO_EIGHTH, (17, 41, 89)),
    (QUARTIC_THETA, (7, 71, 97)),
])
def test_lift_shortest_enumerates_a_basis_of_the_lifted_ideal(monkeypatch, source, primes):
    enumerated = _record(monkeypatch, "svp_enumerate", idealsvp)
    for p in primes:
        for r in _roots(source, p)[:2]:
            cert = shortest_generator(p, source, r)
            base = principal_ideal_lattice(source, cert.vector)
            for k in range(1, 5):
                target = cyclotomic(k)
                if target.degree <= source.degree:
                    continue
                enumerated.clear()
                lifted = lift_shortest(cert, k)
                assert lifted.cross_checked and len(enumerated) == 1
                found = _same_lattice_and_svp(enumerated[0], base, target)
                assert found.sq_length == lifted.sq_length


@pytest.mark.parametrize("p", [13, 11, 89, 71])  # 5, 3 (mod 8); 9, 7 (mod 16)
def test_certify_enumerates_a_basis_of_the_lifted_base_ideal(monkeypatch, p):
    rc = classify_prime(p)
    enumerated = _record(monkeypatch, "svp_enumerate", idealsvp)
    for n in range(1, 5):
        if n < rc.min_level and rc.level1_note is None:
            continue
        base = idealsvp._base_witness(p, rc.label, n, None)[0]
        enumerated.clear()
        res = lambda1_squared(p, n)
        assert res.witness.cross_checked
        found = _same_lattice_and_svp(enumerated[-1], base, cyclotomic(n))
        assert found.vector.coeffs == res.witness.vector.coeffs
        assert found.sq_length == res.lambda1_sq


BIG = 10**199
BIG_PRIME = {  # the least 200-digit prime above 10^199 in each covered class
    "9mod16": BIG + 153,
    "3mod8": BIG + 1867,
    "5mod8": BIG + 2229,
    "7mod16": BIG + 4983,
}


@pytest.mark.parametrize("label", sorted(BIG_PRIME))
def test_no_lll_call_starts_from_a_rank_8_or_16_hnf(monkeypatch, label):
    p = BIG_PRIME[label]
    assert class_label(p) == label and len(str(p)) == 200
    reduced = _record(monkeypatch, "lll_reduce", lattice, idealsvp)
    res = lambda1_squared(p, 4)
    assert res.witness.cross_checked
    large = [lat for lat in reduced if lat.rank >= 8]
    assert large  # the rank-16 lift is still reduced and enumerated
    for lat in large:
        assert lat.rows() != hnf_rows(lat.rows(), lat.ring.degree)


@pytest.mark.parametrize("n", range(1, 6))
def test_certify_refuses_a_witness_outside_the_base_ideal(monkeypatch, n):
    # a - bi has the right length but lies in the other prime over 13; the
    # check runs in Z[i], so it also holds at rank 32, above the enumeration cap
    real = idealsvp._base_witness

    def conjugate_witness(p, label, level, root_hint):
        lat, w = real(p, label, level, root_hint)
        a, b = w.coeffs
        return lat, element(GAUSSIAN_INT, (a, -b))

    monkeypatch.setattr(idealsvp, "_base_witness", conjugate_witness)
    with pytest.raises(ConsistencyError):
        lambda1_squared(13, n)


@pytest.mark.parametrize("n", [2, 5])
def test_certify_refuses_a_witness_that_does_not_generate_the_base_ideal(monkeypatch, n):
    # (1 + i) pi lies in the base ideal (pi) over 13 but has index 2 in it;
    # the covolume check runs in Z[i], so it also holds above the enumeration cap
    real = idealsvp._base_witness

    def multiple_witness(p, label, level, root_hint):
        lat, w = real(p, label, level, root_hint)
        return lat, mul(element(GAUSSIAN_INT, (1, 1)), w)

    monkeypatch.setattr(idealsvp, "_base_witness", multiple_witness)
    with pytest.raises(ConsistencyError, match="does not generate the base ideal"):
        lambda1_squared(13, n)


@pytest.mark.parametrize("label", sorted(BIG_PRIME))
def test_each_tower_lattice_is_reduced_and_checked_once(monkeypatch, label):
    p = BIG_PRIME[label]
    dims = []
    real_hnf = lattice.hnf_rows

    def hnf(rows, dim):
        dims.append(dim)
        return real_hnf(rows, dim)

    monkeypatch.setattr(lattice, "hnf_rows", hnf)
    reduced = _record(monkeypatch, "lll_reduce", lattice, idealsvp)
    res = lambda1_squared(p, 4)
    assert res.witness.cross_checked
    # no HNF is taken on the tower path: every base lattice comes from its
    # builder already in HNF; a 7, 9 (mod 16) base is reduced once, and a
    # 3, 5 (mod 8) base is never reduced: its basis is zeta^j * pi
    assert dims == []
    base_hnfs = [lat for lat in reduced
                 if lat.rank <= 4 and lat.rows() == real_hnf(lat.rows(), lat.ring.degree)]
    assert len(base_hnfs) == (0 if label in ("3mod8", "5mod8") else 1)


@pytest.mark.parametrize("p, n", [(89, 2), (13, 1)])
def test_a_base_in_the_target_ring_is_enumerated_once(monkeypatch, p, n):
    # 89 = 9 (mod 16) at n = 2: the zeta8 base enumeration is the rank-4
    # certificate; 13 = 5 (mod 8) at n = 1: the witness is Cornacchia's,
    # and the one enumeration is the lift check
    searched = _record(monkeypatch, "svp_enumerate", lattice, idealsvp)
    res = lambda1_squared(p, n)
    assert res.witness.cross_checked
    assert [lat.rank for lat in searched] == [1 << n]


def _through_closure(base, closure, target):
    """The basis of target's lattice lifted through the reduced closure,
    and the basis of the lift straight from the reduced base."""
    reduced = lll_reduce(base)
    via = lift_lattice_basis(lll_reduce(lift_lattice_basis(reduced, closure)), target)
    return via.basis, lift_lattice_basis(reduced, target).basis


@pytest.mark.parametrize("p", [7, 71, BIG_PRIME["7mod16"]])
def test_a_theta16_base_is_lifted_through_zeta16(monkeypatch, p):
    # 7 (mod 16) at n = 4: the rank-16 lattice handed to enumeration is
    # the lift of the zeta16-reduced basis, not a lift straight from theta16
    enumerated = _record(monkeypatch, "svp_enumerate", idealsvp)
    res = lambda1_squared(p, 4)
    assert res.witness.cross_checked
    base = idealsvp._base_witness(p, "7mod16", 4, None)[0]
    via, straight = _through_closure(base, cyclotomic(3), cyclotomic(4))
    assert [lat.rank for lat in enumerated] == [4, 16]
    assert enumerated[-1].basis == via != straight


@pytest.mark.parametrize("n", [3, 4])
def test_a_zsqrt2_witness_is_lifted_through_zeta8(monkeypatch, n):
    cert = shortest_generator(89, QUAD_SQRT2, 25)
    enumerated = _record(monkeypatch, "svp_enumerate", idealsvp)
    lifted = lift_shortest(cert, n)
    assert lifted.cross_checked
    base = generator_lattice(cert.vector)
    via, straight = _through_closure(base, CYCLO_EIGHTH, cyclotomic(n))
    assert len(enumerated) == 1 and enumerated[0].basis == via != straight


@pytest.mark.parametrize("p, n", [(89, 3), (13, 2), (71, 3)])
def test_lift_check_refuses_a_vector_of_another_length(monkeypatch, p, n):
    # an enumeration that reports the expected length for a vector of
    # another length is caught by measuring the vector itself
    real = idealsvp.svp_enumerate

    def misreport(lat, radius_sq=None):
        cert = real(lat, radius_sq)
        if lat.ring is not cyclotomic(n):
            return cert
        doubled = element(lat.ring, [2 * c for c in cert.vector.coeffs])
        return SvpCertificate(doubled, cert.sq_length, cert.method, cert.cross_checked)

    monkeypatch.setattr(idealsvp, "svp_enumerate", misreport)
    with pytest.raises(ConsistencyError, match="squared length"):
        lambda1_squared(p, n)


# svp_enumerate's ranks per level n = 1..6 (None: the level is refused);
# a theta16 or zeta8 base is enumerated at rank 4 before its lift
ENUMERATED_RANKS = {
    13: [[2], [4], [8], [16], [], []],
    11: [[2], [4], [8], [16], [], []],
    89: [[2], [4], [4, 8], [4, 16], [4], [4]],
    71: [None, None, [4, 8], [4, 16], [4], [4]],
}


@pytest.mark.parametrize("p", sorted(ENUMERATED_RANKS))
def test_each_level_enumerates_at_these_ranks(monkeypatch, p):
    enumerated = _record(monkeypatch, "svp_enumerate", idealsvp)
    for n, ranks in enumerate(ENUMERATED_RANKS[p], start=1):
        if ranks is None:
            continue
        enumerated.clear()
        lambda1_squared(p, n)
        assert [lat.rank for lat in enumerated] == ranks, n


@pytest.mark.parametrize("p, n", [(13, 3), (11, 3), (71, 3), (89, 2), (89, 3)])
def test_enumeration_only_checks_the_printed_vector(monkeypatch, p, n):
    # an enumeration that returns another shortest vector of the same
    # zeta-orbit, zeta times its least one, is refused: a covered class
    # prints the torsion representative of its lifted base witness
    real = idealsvp.svp_enumerate

    def rotate(lat, radius_sq=None):
        cert = real(lat, radius_sq)
        if lat.ring is not cyclotomic(n):
            return cert
        turned = element(lat.ring, canonical_coeffs(zeta_shift(cert.vector, 1).coeffs))
        return SvpCertificate(turned, cert.sq_length, cert.method, cert.cross_checked)

    monkeypatch.setattr(idealsvp, "svp_enumerate", rotate)
    with pytest.raises(ConsistencyError, match="torsion representative"):
        lambda1_squared(p, n)


@pytest.mark.parametrize("p", [p for p in sieve_primes(1000) if p % 8 == 3]
                         + [BIG_PRIME["3mod8"]])
def test_a_3_mod_8_base_is_the_principal_ideal_of_its_witness(p):
    # (a + b sqrt(-2)) = (p, zeta^2 + (a/b) zeta - 1) in zeta8, and (p) in Z[i]
    for n, ring in ((1, GAUSSIAN_INT), (2, CYCLO_EIGHTH)):
        lat, w = idealsvp._base_witness(p, "3mod8", n, None)
        assert lat.ring is ring and lat.basis == principal_ideal_lattice(ring, w).basis


@pytest.mark.parametrize("p", [p for p in sieve_primes(1000) if p % 16 == 7]
                         + [BIG_PRIME["7mod16"]])
def test_the_zeta16_extension_is_the_lifted_theta16_ideal(monkeypatch, p):
    # (p, t - r) * Z[zeta16] = (p, zeta^2 - r zeta - 1), as t = zeta - zeta^-1
    for r in idealsvp._theta_roots(p, idealsvp.class_sqrt):
        lifted = lift_ideal_lattice(prime_ideal_lattice(QUARTIC_THETA, p, r), cyclotomic(3))
        built = prime_ideal_from_factor(cyclotomic(3), p, [p - 1, -r % p, 1])
        assert built.basis == lifted.basis

    def no_lift(*args):
        raise AssertionError("zeta16_lift_check must not lift the ideal")

    monkeypatch.setattr(lattice, "_zeta_multiples", no_lift)
    assert idealsvp.zeta16_lift_check(p).passed
