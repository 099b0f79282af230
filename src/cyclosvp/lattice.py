"""Exact integer-lattice toolkit for ideal lattices.

Lattices are stored as integer coefficient rows in a ring's power basis,
together with the exact Gram matrix under the canonical bilinear form.
Lattices built from generating rows have their basis in Hermite normal
form (lower-triangular, positive diagonal, entries below the diagonal
reduced modulo the diagonal above them); LLL output and lifted reduced
bases are not in HNF, and every function here accepts any full-rank
basis.

Every prime-ideal lattice is an ideal (p, g(th)), g a monic factor of the
defining polynomial f mod p, made by one builder, _prime_ideal, behind
prime_ideal_lattice (g = x - r) and prime_ideal_from_factor (any g; g = f
gives the inert ideal (p)), whose rows are in HNF as built.

Reduction (Lagrange-Gauss, LLL at delta = 99/100) and shortest vector
enumeration share one fraction-free kernel: the Gram-Schmidt data are the
integers d_i (leading Gram minors) and lambda_ij = d_{j+1} mu_ij (Cohen,
Alg. 2.6.7), and every pruning test compares two integers.  LLL output
carries its final (d, lambda) as IntegerLattice.gso; enumeration and a
further LLL pass start from them instead of computing them again.
Enumeration visits each level zig-zag from its centre and shrinks the
radius to the best length found (Schnorr-Euchner), so every certificate
is unconditional and no float touches a decision.  enumerate_all and
svp_enumerate share one search, _short_vectors, at every rank.

An ideal lifted to a higher cyclotomic ring is spanned by zeta^j * b_i
(lift_lattice_basis).  The lift is a linear map, and from a cyclotomic
source the multiples for different j are orthogonal, so that Gram matrix
is r diagonal blocks of r times the source Gram, r the degree ratio.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._record import Record, set_field
from .errors import ConsistencyError, DomainError, RadiusExhausted
from .rings import (
    Ring,
    RingElement,
    element,
    form_image,
    lift_element,
    mul,
    zeta_shift,
)

DEFAULT_DELTA = Fraction(99, 100)


class SvpCertificate(Record):
    """Shortest-vector witness: the element, its exact squared canonical
    length, how it was obtained, and whether an independent route agreed."""

    __slots__ = ("vector", "sq_length", "method", "cross_checked")

    def __init__(
        self,
        vector: RingElement,
        sq_length: int,
        method: str,  # "analytic-formula" | "enumeration" | "generator-search"
        cross_checked: bool,
    ):
        set_field(self, "vector", vector)
        set_field(self, "sq_length", sq_length)
        set_field(self, "method", method)
        set_field(self, "cross_checked", cross_checked)


class IntegerLattice(Record):
    """A sublattice of a ring given by basis rows: in HNF when built from
    generating rows, any basis after lll_reduce or lift_lattice_basis.

    ``gram`` is the exact Gram matrix under the canonical form;
    ``ideal_meta`` records (p, r) for two-element presentations (p, th - r),
    with r = None when the lattice was built another way.  ``gso`` is the
    integral Gram-Schmidt data (d, lam) of ``gram`` (see _integral_gso),
    kept by lll_reduce so that a later reduction or enumeration of the
    same basis does not compute it again; None when not known.
    """

    __slots__ = ("ring", "basis", "gram", "ideal_meta", "transform", "gso")
    _uncompared = ("gso",)

    def __init__(
        self,
        ring: Ring,
        basis: tuple[RingElement, ...],
        gram: tuple[tuple[int, ...], ...],
        ideal_meta: tuple[int, int | None] | None = None,
        transform: tuple[tuple[int, ...], ...] | None = None,
        gso: tuple[tuple[int, ...], tuple[tuple[int, ...], ...]] | None = None,
    ):
        set_field(self, "ring", ring)
        set_field(self, "basis", basis)
        set_field(self, "gram", gram)
        set_field(self, "ideal_meta", ideal_meta)
        set_field(self, "transform", transform)
        set_field(self, "gso", gso)

    @property
    def rank(self) -> int:
        return len(self.basis)

    def rows(self) -> list[list[int]]:
        return [list(b.coeffs) for b in self.basis]


def _echelon_hnf(rows: list[list[int]], dim: int) -> list[list[int]]:
    """Row-style HNF with pivots on the diagonal (upper-triangular)."""
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    for col in range(dim):
        pool = [r for r in work if r[col]]
        rest = [r for r in work if not r[col]]
        if not pool:
            raise DomainError("rank-deficient generating set")
        while len(pool) > 1:
            pool.sort(key=lambda r: abs(r[col]))
            piv = pool[0]
            if piv[col] < 0:
                for i in range(dim):
                    piv[i] = -piv[i]
            new_pool = [piv]
            for r in pool[1:]:
                q = r[col] // piv[col]
                if q:
                    for i in range(dim):
                        r[i] -= q * piv[i]
                if r[col]:
                    new_pool.append(r)
                elif any(r):
                    rest.append(r)
            pool = new_pool
        piv = pool[0]
        if piv[col] < 0:
            piv = [-v for v in piv]
        basis.append(piv)
        work = rest
    # reduce entries above each pivot
    for i in range(dim):
        for j in range(i + 1, dim):
            q = basis[i][j] // basis[j][j]
            if q:
                for t in range(j, dim):
                    basis[i][t] -= q * basis[j][t]
    return basis


def hnf_rows(rows: list[list[int]], dim: int) -> list[list[int]]:
    """Hermite normal form: lower-triangular, positive diagonal, and
    0 <= B[i][j] < B[j][j] for j < i.  Input rows must span rank ``dim``."""
    flipped = [list(reversed(r)) for r in rows]
    ech = _echelon_hnf(flipped, dim)
    return [list(reversed(ech[dim - 1 - i])) for i in range(dim)]


def _gram_matrix(ring: Ring, basis) -> tuple[tuple[int, ...], ...]:
    """Exact Gram matrix of ring elements under the canonical form.

    Equals canonical_inner on every pair, but maps each vector through
    the ring's sparse form once (form_image) and fills one triangle:
    O(n s d + n^2 d) with s nonzero entries per form row (1 in a
    cyclotomic ring), not O(n^2 d^2)."""
    coeffs = [b.coeffs for b in basis]
    images = [form_image(ring, c) for c in coeffs]
    n = len(coeffs)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            out[i][j] = out[j][i] = sum(a * b for a, b in zip(coeffs[i], images[j]) if a)
    return tuple(tuple(row) for row in out)


def lattice_from_rows(
    ring: Ring, rows: list[list[int]], ideal_meta=None
) -> IntegerLattice:
    """Build an IntegerLattice from generating rows (HNF + exact Gram)."""
    hnf = hnf_rows(rows, ring.degree)
    basis = tuple(element(ring, r) for r in hnf)
    return IntegerLattice(ring, basis, _gram_matrix(ring, basis), ideal_meta)


def _prime_ideal(
    ring: Ring, p: int, g, ideal_meta
) -> tuple[list[int], IntegerLattice | None]:
    """(f mod g, lattice of (p, g(th)) or None when that remainder is not
    zero), for g monic mod p, from one pass over the powers x^j mod g
    (mod p), j = 0..d.  The rows p th^i (i < deg g) and th^j - (x^j mod
    g)(th) (deg g <= j < d) lie in the ideal and are already in HNF with
    determinant p^deg g, its index, so they are the basis as they stand."""
    d = ring.degree
    e = len(g) - 1
    low = [c % p for c in g[:e]]
    cur = [1] + [0] * (e - 1) if e else []  # x^j mod g
    rem = [0] * e
    rows = []
    for j, fj in enumerate(ring.poly):
        if fj:
            rem = [a + fj * c for a, c in zip(rem, cur)]
        if j == d:
            break
        if j >= e:
            rows.append([-c % p for c in cur] + [0] * (j - e) + [1] + [0] * (d - 1 - j))
        if cur:  # x * cur - top * g
            top = cur[-1]
            cur = [(c - top * b) % p for c, b in zip([0] + cur[:-1], low)]
    rem = [c % p for c in rem]
    if any(rem):
        return rem, None
    head = [[0] * i + [p] + [0] * (d - 1 - i) for i in range(e)]
    basis = tuple(element(ring, r) for r in head + rows)
    return rem, IntegerLattice(ring, basis, _gram_matrix(ring, basis), ideal_meta)


def prime_ideal_lattice(ring: Ring, p: int, r: int) -> IntegerLattice:
    """Lattice of the prime ideal (p, th - r) where th generates the ring:
    the builder's (p, g(th)) with g = x - r, whose remainder is f(r) mod p.

    Requires r to be a root of the ring's defining polynomial mod p; a
    non-root raises DomainError carrying the offending residue.
    """
    rem, lat = _prime_ideal(ring, p, (-r, 1), (p, r % p))
    if lat is None:
        raise DomainError(
            f"(p={p}, r={r}) is not an ideal of {ring.name}: "
            f"defining polynomial has residue {rem[0]} at r",
            payload={"error": "not_an_ideal", "residue": str(rem[0])},
        )
    return lat


def prime_ideal_from_factor(ring: Ring, p: int, g: list[int]) -> IntegerLattice:
    """Lattice of (p, g(th)) for a monic divisor g (coefficients from the
    constant term up) of the defining polynomial mod p; the ideal norm is
    p**deg(g), and g = the defining polynomial itself gives the ideal (p)."""
    if g[-1] % p != 1:
        raise DomainError("factor must be monic")
    _, lat = _prime_ideal(ring, p, g, (p, None))
    if lat is None:
        raise DomainError(
            f"g does not divide the defining polynomial of {ring.name} mod {p}"
        )
    return lat


def generator_lattice(alpha: RingElement) -> IntegerLattice:
    """The principal ideal (alpha), alpha nonzero, on the basis
    alpha * th^j (j < d) itself, with its exact Gram matrix and without
    HNF.  In a cyclotomic ring th^j = zeta^j, so a generator pi with
    pi * conj(pi) = p gives the Gram matrix |pi|^2 I: a reduced basis."""
    ring = alpha.ring
    theta = element(ring, [0, 1] + [0] * (ring.degree - 2))
    basis = [alpha]
    while len(basis) < ring.degree:
        basis.append(mul(basis[-1], theta))
    return IntegerLattice(ring, tuple(basis), _gram_matrix(ring, basis))


def principal_ideal_lattice(ring: Ring, alpha: RingElement) -> IntegerLattice:
    """Lattice of the principal ideal generated by alpha, in HNF."""
    if alpha.ring is not ring:
        raise DomainError("generator lies in a different ring")
    if alpha.is_zero():
        raise DomainError("zero generates the zero ideal, not a lattice")
    return lattice_from_rows(ring, generator_lattice(alpha).rows())


def _zeta_multiples(lat: IntegerLattice, target: Ring) -> tuple[RingElement, ...]:
    """The elements zeta^j * b_i of the cyclotomic target, for each basis
    element b_i lifted along the fixed embedding and j < r, r the degree
    ratio; j is the outer loop.

    For every source ring (cyclotomic, zsqrt2 or theta16) the target ring
    is spanned over the source by 1, zeta, ..., zeta^(r-1), because
    zeta's minimal polynomial over the source has degree r and is monic
    with coefficients in the source ring, so these elements generate
    (ideal) * target-ring.  From a cyclotomic source the lift sends the
    coefficient of zeta_s^i to place i r, and zeta^j moves it to i r + j,
    so the multiples for different j have disjoint supports: the Gram
    matrix is r diagonal blocks, each r times the source Gram
    (lift_lattice_basis builds it so).
    """
    source = lat.ring
    if target.cyclo_level is None:
        raise DomainError(f"no ideal lift from {source.name} to {target.name}")
    if target.degree < source.degree:
        raise DomainError("can only lift to a larger ring")
    lifted = [lift_element(b, target) for b in lat.basis]
    return tuple(zeta_shift(x, j) for j in range(target.degree // source.degree)
                 for x in lifted)


def lift_ideal_lattice(lat: IntegerLattice, target: Ring) -> IntegerLattice:
    """Extend an ideal lattice along the fixed ring embedding into a
    cyclotomic target: the lattice of (ideal) * target-ring, in HNF
    (_zeta_multiples(lat, target) put in HNF once).  A lat already in
    the target ring is returned unchanged, on whatever basis it has."""
    if lat.ring is target:
        return lat
    rows = [list(x.coeffs) for x in _zeta_multiples(lat, target)]
    meta = lat.ideal_meta and (lat.ideal_meta[0], None)
    return lattice_from_rows(target, rows, ideal_meta=meta)


def lift_lattice_basis(lat: IntegerLattice, target: Ring) -> IntegerLattice:
    """The lattice of (ideal) * target-ring on the basis
    _zeta_multiples(lat, target) itself, with its exact Gram matrix and
    without HNF.  Lifting an LLL-reduced basis gives a basis with small
    entries, which LLL and enumeration take far more cheaply than the
    HNF, whose diagonal carries p.

    The lift is a linear map, and from a cyclotomic source it scales
    lengths by r and keeps the zeta^j multiples orthogonal, so the Gram
    matrix is the block diagonal of r copies of r * lat.gram, read off
    without a dot product.  A zsqrt2 or theta16 source has no such
    structure; its Gram matrix is computed."""
    basis = _zeta_multiples(lat, target)
    meta = lat.ideal_meta and (lat.ideal_meta[0], None)
    if lat.ring.cyclo_level is None:
        return IntegerLattice(target, basis, _gram_matrix(target, basis), meta)
    r = target.degree // lat.ring.degree
    pad = (0,) * lat.rank
    block = [tuple(r * v for v in row) for row in lat.gram]
    gram = tuple(pad * j + row + pad * (r - 1 - j) for j in range(r) for row in block)
    return IntegerLattice(target, basis, gram, meta)


def contains(lat: IntegerLattice, v: RingElement) -> bool:
    """Exact membership test by back-substitution against a
    lower-triangular basis; any other basis is put in HNF first."""
    if v.ring is not lat.ring:
        return False
    d = lat.ring.degree
    if lat.rank != d:
        raise DomainError("membership test expects a full-rank lattice")
    rows = lat.rows()
    if any(not row[i] or any(row[i + 1:]) for i, row in enumerate(rows)):
        rows = hnf_rows(rows, d)
    target = list(v.coeffs)
    for i in range(d - 1, -1, -1):
        q, rem = divmod(target[i], rows[i][i])
        if rem:
            return False
        if q:
            for t in range(i + 1):
                target[t] -= q * rows[i][t]
    return not any(target)


def gram_det(gram) -> int:
    """Determinant of an integer Gram matrix (exact, fraction-free Bareiss
    elimination: every division is exact)."""
    n = len(gram)
    m = [list(row) for row in gram]
    sign, prev = 1, 1
    for i in range(n):
        piv = next((r for r in range(i, n) if m[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
        prev = m[i][i]
    return sign * prev


def _round_div(a: int, b: int) -> int:
    """round(a / b) for b > 0, halves to even (as round(Fraction(a, b)))."""
    q, r = divmod(a, b)
    if 2 * r > b or (2 * r == b and q & 1):
        q += 1
    return q


def gauss_reduce_gram(gram) -> tuple[tuple[tuple[int, int], ...], list[list[int]]]:
    """Lagrange-Gauss reduction of a rank-2 Gram matrix.

    Returns (reduced_gram, U) with U unimodular and
    reduced = U * B giving |b1| <= |b2|, |<b1,b2>| <= |b1|^2 / 2.
    """
    a, b, c = gram[0][0], gram[0][1], gram[1][1]
    u = [[1, 0], [0, 1]]
    while True:
        if a > c:
            a, c = c, a
            u[0], u[1] = u[1], u[0]
        t = _round_div(b, a)
        if t:
            c = c - 2 * t * b + t * t * a
            b = b - t * a
            u[1] = [u[1][i] - t * u[0][i] for i in range(2)]
        if abs(2 * b) <= a and a <= c:
            return ((a, b), (b, c)), u


def _coords_to_row(coords, rows, d):
    out = [0] * d
    for xi, row in zip(coords, rows):
        if xi:
            for j in range(d):
                out[j] += xi * row[j]
    return out


def _apply_transform(lat: IntegerLattice, u: list[list[int]], gso=None) -> IntegerLattice:
    rows = lat.rows()
    d = lat.ring.degree
    basis = tuple(element(lat.ring, _coords_to_row(c, rows, d)) for c in u)
    return IntegerLattice(
        lat.ring, basis, _gram_matrix(lat.ring, basis), lat.ideal_meta,
        tuple(tuple(r) for r in u), gso,
    )


def gauss_reduce(lat: IntegerLattice) -> IntegerLattice:
    """Lagrange-Gauss reduce a rank-2 lattice; the first basis vector of
    the result is exactly the shortest nonzero vector."""
    if lat.rank != 2:
        raise DomainError(f"Gauss reduction needs rank 2, got rank {lat.rank}")
    _, u = gauss_reduce_gram(lat.gram)
    return _apply_transform(lat, u)


def _integral_gso(gram) -> tuple[list[int], list[list[int]]]:
    """Fraction-free Gram-Schmidt data of a positive definite Gram matrix.

    Returns (d, lam): d[i] is the leading i x i minor (d[0] = 1), so
    |b*_i|^2 = d[i+1] / d[i], and lam[i][j] = d[j+1] * mu_ij for j < i.
    Every division is exact (Cohen, Alg. 2.6.7).
    """
    n = len(gram)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        row = lam[i]
        for j in range(i + 1):
            u = gram[i][j]
            other = lam[j]
            for k in range(j):
                u = (d[k + 1] * u - row[k] * other[k]) // d[k]
            if j < i:
                row[j] = u
            elif u <= 0:
                raise ConsistencyError("Gram matrix is not positive definite")
            else:
                d[i + 1] = u
    return d, lam


def lll_reduce(lat: IntegerLattice, delta: Fraction = DEFAULT_DELTA) -> IntegerLattice:
    """delta-LLL reduction in integer arithmetic (integral LLL, Cohen
    Alg. 2.6.7).

    The decisions are those of rational LLL (size reduction rounds half
    to even), so the result is the same basis.  Returns a new lattice
    whose ``transform`` field records the unimodular change of basis and
    whose ``gso`` holds the final (d, lam); when no step changed the
    basis, that lattice keeps the input basis and Gram matrix with the
    identity transform.  The loop starts from the input's ``gso`` when it
    has one, so reducing an LLL output again costs only the checks.
    Rank-1 input comes back with the identity transform and d = (1, g00).
    """
    n = lat.rank
    if lat.gso is None:
        d, lam = _integral_gso(lat.gram)
    else:
        d, lam = list(lat.gso[0]), [list(row) for row in lat.gso[1]]
    num, den = delta.numerator, delta.denominator
    identity = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    u = [row[:] for row in identity]

    def size_reduce(k, l):
        dl = d[l + 1]
        rk = lam[k]
        if 2 * abs(rk[l]) > dl:
            q = _round_div(rk[l], dl)
            uk, ul, rl = u[k], u[l], lam[l]
            for t in range(n):
                uk[t] -= q * ul[t]
            for t in range(l):
                rk[t] -= q * rl[t]
            rk[l] -= q * dl

    k = 1
    while k < n:
        size_reduce(k, k - 1)
        lk = lam[k][k - 1]
        # Lovasz: |b*_k|^2 < (delta - mu^2) |b*_{k-1}|^2, times d_k d_{k-1}
        if den * (d[k + 1] * d[k - 1] + lk * lk) < num * d[k] * d[k]:
            # swap rows k-1 and k; lam[k][k-1] and every d but d[k] stay
            bnew = (d[k - 1] * d[k + 1] + lk * lk) // d[k]
            u[k - 1], u[k] = u[k], u[k - 1]
            rk, rk1 = lam[k], lam[k - 1]
            for t in range(k - 1):
                rk1[t], rk[t] = rk[t], rk1[t]
            for i in range(k + 1, n):
                ri = lam[i]
                t = ri[k]
                ri[k] = (d[k + 1] * ri[k - 1] - lk * t) // d[k]
                ri[k - 1] = (bnew * t + lk * ri[k]) // d[k + 1]
            d[k] = bnew
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                size_reduce(k, l)
            k += 1
    gso = (tuple(d), tuple(tuple(row) for row in lam))
    if u == identity:  # nothing to rebuild
        return IntegerLattice(lat.ring, lat.basis, lat.gram, lat.ideal_meta,
                              tuple(tuple(r) for r in u), gso)
    return _apply_transform(lat, u, gso)


def _enum_coords(gram, radius_sq: int, shrink: bool, gso):
    """Yield (sq_length, coords) for nonzero vectors with x G x^T <= radius.

    One representative per +/- pair: the highest-index nonzero coordinate
    is positive.  Each level visits its coordinates zig-zag outward from
    the projected centre a / d[i+1] (Schnorr-Euchner), so the first
    coordinate outside the radius ends the level.  With ``shrink`` the
    radius drops to each yielded length; vectors of equal length are
    still yielded.

    Integer pruning: used = d[i+1] * |pi_{i+1}(v)|^2 is an integer, and
    x is admissible at level i iff (x d[i+1] - a)^2 <= d[i] (R d[i+1] - used).
    ``gso`` is the (d, lam) of ``gram`` (see _integral_gso).
    """
    n = len(gram)
    d, lam = gso
    x = [0] * n
    radius = radius_sq

    def rec(level: int, used: int, zero_above: bool):
        nonlocal radius
        dn, dl = d[level + 1], d[level]
        a = 0
        if zero_above:
            xi, step = 0, 0
        else:
            for j in range(level + 1, n):
                if x[j]:
                    a -= x[j] * lam[j][level]
            xi = _round_div(a, dn)
            step = 1 if a >= xi * dn else -1
        k = 0
        while True:
            e = xi * dn - a
            e *= e
            if e > dl * (radius * dn - used):
                break
            total = (dl * used + e) // dn
            x[level] = xi
            if level:
                yield from rec(level - 1, total, zero_above and xi == 0)
            elif xi or not zero_above:
                yield total, tuple(x)
                if shrink and total < radius:
                    radius = total
            if zero_above:
                xi += 1
            else:
                k += 1
                xi += step * k if k & 1 else -step * k
        x[level] = 0

    yield from rec(n - 1, 0, True)


def canonical_coeffs(coeffs) -> tuple[int, ...]:
    """Sign-normalize: first nonzero coefficient positive."""
    for c in coeffs:
        if c:
            return tuple(coeffs) if c > 0 else tuple(-v for v in coeffs)
    return tuple(coeffs)


# The largest rank _short_vectors enumerates (tower level 4).  The cost of
# LLL and enumeration grows steeply with the rank: a fallback base of rank 16
# takes milliseconds, one of rank 32 up to seconds.  Above the cap the tower
# does not re-enumerate its lift (certified is false) and the enumeration
# fallback is refused.  A constant, not a setting, so that every answer
# depends only on its arguments.
MAX_ENUMERATION_RANK = 16


def _short_vectors(lat: IntegerLattice, radius_sq: int | None, shrink: bool):
    """Yield (sq_length, row) for the nonzero vectors of ``lat`` with
    squared canonical length <= radius_sq, one per +/- pair, each row
    sign-normalized.  Checks the rank cap and searches the LLL-reduced
    basis with the content s of its Gram matrix (the gcd of its entries)
    divided out; its Gram-Schmidt data come from LLL's, since d[i] and
    lam[i][j] are homogeneous of degrees i and j + 1 in the Gram entries,
    so dividing by s divides them by s^i and s^(j+1).  With ``shrink``
    the radius starts no higher than the shortest reduced basis vector
    (there when radius_sq is None) and drops to each yielded length."""
    if lat.rank > MAX_ENUMERATION_RANK:
        raise DomainError(f"rank {lat.rank} exceeds enumeration cap {MAX_ENUMERATION_RANK}")
    red = lll_reduce(lat)
    rows = red.rows()
    scale = gcd(*(v for row in red.gram for v in row))
    gram = tuple(tuple(v // scale for v in row) for row in red.gram)
    d, lam = red.gso
    powers = [scale ** i for i in range(red.rank + 1)]
    gso = ([v // s for v, s in zip(d, powers)],
           [[v // s for v, s in zip(row, powers[1:])] for row in lam])
    radius = None if radius_sq is None else radius_sq // scale
    if shrink:
        least = min(gram[i][i] for i in range(red.rank))
        radius = least if radius is None else min(radius, least)
    for sq, coords in _enum_coords(gram, radius, shrink, gso):
        yield sq * scale, canonical_coeffs(_coords_to_row(coords, rows, lat.ring.degree))


def enumerate_all(lat: IntegerLattice, radius_sq: int) -> list[tuple[RingElement, int]]:
    """All nonzero vectors with squared canonical length <= radius_sq,
    one per +/- pair, sign-normalized, sorted by (length, coefficients)."""
    return [(element(lat.ring, row), sq)
            for sq, row in sorted(_short_vectors(lat, radius_sq, shrink=False))]


def svp_enumerate(lat: IntegerLattice, radius_sq: int | None = None) -> SvpCertificate:
    """Exact shortest vector: the least (length, row) of _short_vectors.

    The search radius starts at the shortest vector of the LLL-reduced
    basis, or at ``radius_sq`` when that is smaller, and drops to the
    best length found so far.  Without ``radius_sq`` the search cannot
    come back empty; RadiusExhausted is raised only when ``radius_sq``
    lies below the lattice minimum.  Ties are broken by returning the
    lexicographically smallest sign-normalized coefficient vector.
    """
    if radius_sq is not None and radius_sq <= 0:
        raise DomainError("radius_sq must be positive")
    best = min(_short_vectors(lat, radius_sq, shrink=True), default=None)
    if best is None:
        raise RadiusExhausted(f"no vector with squared length <= {radius_sq}")
    return SvpCertificate(element(lat.ring, best[1]), best[0], "enumeration", False)


def svp_with_doubling(lat: IntegerLattice, radius_sq: int, retries: int = 4) -> SvpCertificate:
    """svp_enumerate with the doubling-on-failure loop (capped).

    No library path calls it: ``svp_enumerate(lat)`` cannot exhaust its
    radius."""
    for _ in range(retries + 1):
        try:
            return svp_enumerate(lat, radius_sq)
        except RadiusExhausted:
            radius_sq *= 2
    raise RadiusExhausted(f"no vector found within {retries} doublings")

