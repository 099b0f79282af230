"""Exact arithmetic in the supported integer rings.

Supported rings and their fixed power bases:

  =================  =======================  ====================  ======
  name               ring                     basis                 degree
  =================  =======================  ====================  ======
  zi                 Z[i]                     {1, i}                2
  zsqrt2             Z[sqrt2]                 {1, sqrt2}            2
  zeta8              Z[zeta_8]                {1, z, z^2, z^3}      4
  theta16            Z[zeta_16 + zeta_16^7]   {1, t, t^2, t^3}      4
  zeta{2^(k+1)}      Z[zeta_{2^(k+1)}]        powers of zeta        2^k
  =================  =======================  ====================  ======

``zi`` doubles as the level-1 power-of-two cyclotomic ring (zeta_4 = i)
and ``zeta8`` as level 2; ``cyclotomic(k)`` returns the same singleton
objects for k = 1, 2.  ``theta16`` is the real-conjugate quartic subring
of Z[zeta_16]: its generator t = zeta_16 + zeta_16^7 satisfies
t^4 + 4 t^2 + 2 = 0 and t^2 = sqrt2 - 2.

All coefficients are arbitrary-precision integers; no floating point is
used anywhere.  Lengths refer to the canonical embedding: the squared
length of x is the sum of |phi(x)|^2 over all field embeddings phi, an
integer computed from the canonical form of the power basis, stored as
sparse rows (2^k * I for the cyclotomic rings, one entry per row, so a
level is built in O(d); diag(2, 4) for zsqrt2; the trace form of t for
theta16).  Serialization is the coefficient vector in the fixed basis
order above.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .errors import ConsistencyError, DomainError


class Ring:
    """A supported ring: name, defining polynomial, canonical form (row i
    of ``gram_nonzero`` lists the (column, entry) pairs of the nonzero
    Gram entries of basis element i) and tower level, None off the tower.
    ``gram_scale``, ``torsion_order`` and ``has_sqrt2`` derive from them."""

    __slots__ = (
        "name",
        "degree",
        "poly",
        "gram_nonzero",
        "gram_scale",
        "cyclo_level",
        "torsion_order",
        "has_sqrt2",
        "_low_terms",
    )

    def __init__(self, name: str, poly: tuple[int, ...], form, cyclo_level: int | None):
        self.name = name
        self.poly = poly
        self.degree = len(poly) - 1
        self.gram_nonzero = form
        self.gram_scale = gcd(*(v for row in form for _, v in row))
        self.cyclo_level = cyclo_level
        self.torsion_order = 2 * self.degree if cyclo_level is not None else 2
        self.has_sqrt2 = cyclo_level != 1
        # th^d = -sum f_k th^k over the nonzero low terms f_k of the monic poly
        self._low_terms = tuple((k, c) for k, c in enumerate(poly[:-1]) if c)

    @property
    def gram(self) -> tuple[tuple[int, ...], ...]:
        """The canonical form as a dense d x d Gram matrix."""
        dense = [[0] * self.degree for _ in self.gram_nonzero]
        for out, row in zip(dense, self.gram_nonzero):
            for j, v in row:
                out[j] = v
        return tuple(map(tuple, dense))

    def __repr__(self) -> str:
        return f"Ring({self.name})"


def _diagonal_form(d: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    return tuple(((i, d),) for i in range(d))


GAUSSIAN_INT = Ring("zi", (1, 0, 1), _diagonal_form(2), 1)
QUAD_SQRT2 = Ring("zsqrt2", (-2, 0, 1), (((0, 2),), ((1, 4),)), None)
CYCLO_EIGHTH = Ring("zeta8", (1, 0, 0, 0, 1), _diagonal_form(4), 2)
# Trace form Tr(x * conj(y)) of the basis {1, t, t^2, t^3}, t^2 = sqrt2 - 2.
QUARTIC_THETA = Ring("theta16", (2, 0, 4, 0, 1), (
    ((0, 4), (2, -8)), ((1, 8), (3, -24)), ((0, -8), (2, 24)), ((1, -24), (3, 80))), None)

_CYCLO_CACHE: dict[int, Ring] = {1: GAUSSIAN_INT, 2: CYCLO_EIGHTH}


def cyclotomic(k: int) -> Ring:
    """The power-of-two cyclotomic ring Z[zeta_{2^(k+1)}] of degree 2^k.

    Levels 1 and 2 resolve to the canonical ``zi`` / ``zeta8`` singletons.
    """
    if k < 1:
        raise DomainError(f"cyclotomic level must be >= 1, got {k}")
    ring = _CYCLO_CACHE.get(k)
    if ring is None:
        d = 1 << k
        poly = (1,) + (0,) * (d - 1) + (1,)
        ring = Ring(f"zeta{2 * d}", poly, _diagonal_form(d), k)
        _CYCLO_CACHE[k] = ring
    return ring


def ring_by_name(name: str) -> Ring:
    for ring in (GAUSSIAN_INT, QUAD_SQRT2, CYCLO_EIGHTH, QUARTIC_THETA):
        if ring.name == name:
            return ring
    if name.startswith("zeta") and name[4:].isdigit():
        m = int(name[4:])
        k = m.bit_length() - 2
        if m == 1 << (k + 1) and k >= 1:
            return cyclotomic(k)
    raise DomainError(f"unknown ring tag {name!r}")


@dataclass(frozen=True)
class RingElement:
    """An exact element: integer coefficient vector in the ring's basis."""

    ring: Ring
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.ring.degree:
            raise DomainError(
                f"{self.ring.name} needs {self.ring.degree} coefficients, "
                f"got {len(self.coeffs)}"
            )

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __add__(self, other: "RingElement") -> "RingElement":
        return add(self, other)

    def __sub__(self, other: "RingElement") -> "RingElement":
        return sub(self, other)

    def __neg__(self) -> "RingElement":
        return neg(self)

    def __mul__(self, other: "RingElement") -> "RingElement":
        return mul(self, other)

    def __repr__(self) -> str:
        return f"{self.ring.name}{list(self.coeffs)}"


def element(ring: Ring, coeffs) -> RingElement:
    return RingElement(ring, tuple(int(c) for c in coeffs))


def integer(ring: Ring, n: int) -> RingElement:
    return RingElement(ring, (n,) + (0,) * (ring.degree - 1))


def one(ring: Ring) -> RingElement:
    return integer(ring, 1)


def zero(ring: Ring) -> RingElement:
    return integer(ring, 0)


def _check_same_ring(x: RingElement, y: RingElement) -> None:
    if x.ring is not y.ring:
        raise DomainError(f"ring mismatch: {x.ring.name} vs {y.ring.name}")


def add(x: RingElement, y: RingElement) -> RingElement:
    _check_same_ring(x, y)
    return RingElement(x.ring, tuple(a + b for a, b in zip(x.coeffs, y.coeffs)))


def sub(x: RingElement, y: RingElement) -> RingElement:
    _check_same_ring(x, y)
    return RingElement(x.ring, tuple(a - b for a, b in zip(x.coeffs, y.coeffs)))


def neg(x: RingElement) -> RingElement:
    return RingElement(x.ring, tuple(-a for a in x.coeffs))


def mul(x: RingElement, y: RingElement) -> RingElement:
    """Exact product, reduced modulo the defining relation."""
    _check_same_ring(x, y)
    ring = x.ring
    d = ring.degree
    prod = [0] * (2 * d - 1)
    for i, xi in enumerate(x.coeffs):
        if xi:
            for j, yj in enumerate(y.coeffs):
                if yj:
                    prod[i + j] += xi * yj
    # th^k = -sum f_t th^(k-d+t), from the top degree down
    low = ring._low_terms
    for k in range(2 * d - 2, d - 1, -1):
        c = prod[k]
        if c:
            for t, f in low:
                prod[k - d + t] -= c * f
    return RingElement(ring, tuple(prod[:d]))


def zeta_shift(x: RingElement, e: int) -> RingElement:
    """x * zeta^e in a cyclotomic ring: the coefficient vector rotated by
    e places, with the coefficients that wrap past zeta^(d-1) negated
    (zeta^d = -1)."""
    ring = x.ring
    if ring.cyclo_level is None:
        raise DomainError(f"{ring.name} is not a cyclotomic ring")
    d = ring.degree
    e %= 2 * d
    c = x.coeffs
    if e >= d:
        c, e = tuple(-v for v in c), e - d
    return RingElement(ring, tuple(-v for v in c[d - e:]) + c[:d - e])


def power(x: RingElement, n: int) -> RingElement:
    """x**n for n >= 0, by repeated squaring."""
    if n < 0:
        raise DomainError("negative powers are only defined for units; use unit()")
    acc = one(x.ring)
    base = x
    while n:
        if n & 1:
            acc = mul(acc, base)
        base = mul(base, base)
        n >>= 1
    return acc


def _eval_poly(coeffs: tuple[int, ...], at: RingElement) -> RingElement:
    """Evaluate sum coeffs[j] * at**j by Horner's rule."""
    ring = at.ring
    acc = zero(ring)
    for c in reversed(coeffs):
        acc = mul(acc, at)
        if c:
            acc = add(acc, integer(ring, c))
    return acc


# theta16 automorphisms, indexed by the odd residue i mod 16 acting on
# zeta_16; sigma_3(t) = t^3 + 3t, and i = 9 restricts to t -> -t.
_THETA_SIGMA3 = (0, 3, 0, 1)


def _theta_image(i: int) -> tuple[int, ...]:
    i %= 16
    if i in (1, 7):
        return (0, 1, 0, 0)
    if i in (9, 15):
        return (0, -1, 0, 0)
    if i in (3, 5):
        return _THETA_SIGMA3
    return tuple(-c for c in _THETA_SIGMA3)  # i in (11, 13)


def apply_automorphism(x: RingElement, i: int) -> RingElement:
    """Image of x under sigma_i (zeta -> zeta^i, restricted to subrings).

    For zsqrt2 the indices i = 3, 5 (mod 8) act as the conjugation
    sqrt2 -> -sqrt2 and i = 1, 7 (mod 8) as the identity; for theta16 the
    index is read mod 16 through the embedding into Z[zeta_16].
    """
    if i % 2 == 0:
        raise DomainError(f"automorphism index must be odd, got {i}")
    ring = x.ring
    if ring.cyclo_level is not None:
        d = ring.degree
        m = 2 * d
        i %= m
        out = [0] * d
        for j, c in enumerate(x.coeffs):
            if c:
                e = i * j % m
                if e < d:
                    out[e] += c
                else:
                    out[e - d] -= c
        return RingElement(ring, tuple(out))
    if ring is QUAD_SQRT2:
        if i % 8 in (1, 7):
            return x
        return RingElement(ring, (x.coeffs[0], -x.coeffs[1]))
    if ring is QUARTIC_THETA:
        return _eval_poly(x.coeffs, RingElement(ring, _theta_image(i)))
    raise DomainError(f"no automorphisms defined for {ring.name}")


def automorphism_indices(ring: Ring) -> tuple[int, ...]:
    """One index per distinct automorphism (the full Galois group)."""
    if ring.cyclo_level is not None:
        return tuple(range(1, 2 * ring.degree, 2))
    if ring is QUAD_SQRT2:
        return (1, 3)
    if ring is QUARTIC_THETA:
        return (1, 3, 9, 11)
    raise DomainError(f"no automorphisms defined for {ring.name}")


def conjugate(x: RingElement) -> RingElement:
    """Complex conjugation (the identity on the totally real zsqrt2)."""
    ring = x.ring
    if ring is QUAD_SQRT2:
        return x
    if ring is QUARTIC_THETA:
        return RingElement(ring, tuple(-c if j % 2 else c for j, c in enumerate(x.coeffs)))
    return apply_automorphism(x, 2 * ring.degree - 1)


def field_norm(x: RingElement) -> int:
    """Norm over Q: the exact product of all automorphism images.

    For a principal ideal (x) the ideal norm equals |field_norm(x)|.
    """
    acc = one(x.ring)
    for i in automorphism_indices(x.ring):
        acc = mul(acc, apply_automorphism(x, i))
    if any(acc.coeffs[1:]):
        raise ConsistencyError(f"norm computation left a non-rational value: {acc!r}")
    return acc.coeffs[0]


def form_image(ring: Ring, coeffs) -> list[int]:
    """G c for the ring's canonical Gram form G, read from its sparse
    rows: O(s d) with s nonzero entries per row (1 in a cyclotomic ring)."""
    return [sum(v * coeffs[j] for j, v in row) for row in ring.gram_nonzero]


def canonical_inner(x: RingElement, y: RingElement) -> int:
    """Canonical-embedding inner product, an exact integer."""
    _check_same_ring(x, y)
    return sum(a * b for a, b in zip(x.coeffs, form_image(x.ring, y.coeffs)) if a)


def canonical_sq_length(x: RingElement) -> int:
    """Squared length under the canonical embedding, an exact integer.

    Equals 2^k * (sum of squared coefficients) in the level-k cyclotomic
    ring, 2(u^2 + 2v^2) for u + v*sqrt2, and the trace form Tr(x * conj x)
    for theta16.
    """
    return canonical_inner(x, x)


@lru_cache(maxsize=None)
def _generator_image(source: Ring, target: Ring) -> RingElement:
    """Image of source's generator under the fixed embedding into target."""
    if target.cyclo_level is not None:
        k = target.cyclo_level
        one_t = one(target)
        if source.cyclo_level is not None and source.cyclo_level <= k:
            return zeta_shift(one_t, 1 << (k - source.cyclo_level))
        if source is QUAD_SQRT2 and k >= 2:  # sqrt2 = zeta_8 - zeta_8^3
            e = 1 << (k - 2)
            return sub(zeta_shift(one_t, e), zeta_shift(one_t, 3 * e))
        if source is QUARTIC_THETA and k >= 3:  # t = zeta_16 + zeta_16^7
            e = 1 << (k - 3)
            return add(zeta_shift(one_t, e), zeta_shift(one_t, 7 * e))
    if source is QUAD_SQRT2 and target is QUARTIC_THETA:
        return element(target, (2, 0, 1, 0))
    raise DomainError(f"no embedding of {source.name} into {target.name}")


@lru_cache(maxsize=None)
def _basis_images(source: Ring, target: Ring) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The images of source's power basis 1, th, ..., th^(d-1) under the
    fixed embedding into target, as (place, coefficient) pairs of their
    nonzero coefficients: the columns of the embedding's matrix, built
    once per (source, target) pair from the generator's image.  From a
    cyclotomic source that image is the single place zeta^r, r the degree
    ratio, so th^i goes to place i r."""
    r = target.degree // source.degree
    if r and source.cyclo_level is not None and target.cyclo_level is not None:
        return tuple(((i * r, 1),) for i in range(source.degree))
    g = _generator_image(source, target)
    images, cur = [], one(target)
    for _ in range(source.degree):
        images.append(tuple((i, c) for i, c in enumerate(cur.coeffs) if c))
        cur = mul(cur, g)
    return tuple(images)


def lift_element(x: RingElement, target: Ring) -> RingElement:
    """Image of x under the canonical embedding of its ring into target.

    The embedding is linear, so the image is the sum of the coefficients
    times the images of the basis elements (one place each from a
    cyclotomic source).  The squared canonical length scales by the
    degree ratio target.degree / x.ring.degree.
    """
    if x.ring is target:
        return x
    out = [0] * target.degree
    for c, image in zip(x.coeffs, _basis_images(x.ring, target)):
        if c:
            for i, v in image:
                out[i] += c * v
    return RingElement(target, tuple(out))


def cyclotomic_closure(ring: Ring) -> Ring:
    """The smallest cyclotomic ring of the tower containing ring: zeta8
    for zsqrt2, zeta16 for theta16, a cyclotomic ring itself."""
    if ring is QUAD_SQRT2:
        return CYCLO_EIGHTH
    if ring is QUARTIC_THETA:
        return cyclotomic(3)
    return ring


def torsion_generator(ring: Ring) -> RingElement:
    """Generator of the torsion unit subgroup (i, zeta, or -1)."""
    if ring.cyclo_level is not None:
        return element(ring, [0, 1] + [0] * (ring.degree - 2))
    return integer(ring, -1)


_EPS_SQRT2 = (1, 1)  # 1 + sqrt2, the fundamental unit
_EPS_INV_SQRT2 = (-1, 1)  # its inverse -1 + sqrt2


def unit(ring: Ring, torsion_k: int = 0, eps_n: int = 0) -> RingElement:
    """The unit torsion**k * (1 + sqrt2)**n, exact.

    Requesting eps_n != 0 in Z[i] is an error: its unit group is torsion.
    """
    t = torsion_generator(ring)
    u = power(t, torsion_k % ring.torsion_order)
    if eps_n:
        if not ring.has_sqrt2:
            raise DomainError(f"{ring.name} has no unit 1 + sqrt2")
        base = _EPS_SQRT2 if eps_n > 0 else _EPS_INV_SQRT2
        eps = lift_element(element(QUAD_SQRT2, base), ring)
        u = mul(u, power(eps, abs(eps_n)))
    return u


def as_sqrt2_pair(x: RingElement) -> tuple[int, int]:
    """Coordinates (u, v) with x = u + v*sqrt2, for x in the Z[sqrt2]
    subring of its ring.  DomainError when x lies outside that subring."""
    ring = x.ring
    c = x.coeffs
    if ring is QUAD_SQRT2:
        return c[0], c[1]
    if ring is QUARTIC_THETA:
        if c[1] == 0 and c[3] == 0:
            return c[0] - 2 * c[2], c[2]
    elif ring is CYCLO_EIGHTH:
        if c[2] == 0 and c[3] == -c[1]:
            return c[0], c[1]
    raise DomainError(f"{x!r} is not in the Z[sqrt2] subring")


def element_to_json(x: RingElement) -> dict:
    return {"ring": x.ring.name, "coeffs": [str(c) for c in x.coeffs]}


def element_from_json(data: dict) -> RingElement:
    return element(ring_by_name(data["ring"]), [int(c) for c in data["coeffs"]])
