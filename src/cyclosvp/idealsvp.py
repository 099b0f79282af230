"""Shortest vectors of prime-ideal lattices in the power-of-two tower.

Length formulas by residue class of p, with n the tower level (ring
Z[zeta_{2^(n+1)}], rank 2^n) and (a_p, b_p) the fundamental solution of
a^2 - 2b^2 = p:

  p = 5 (mod 8),  n >= 1:  lambda1^2 = 2^n * p
  p = 3 (mod 8),  n >= 2:  lambda1^2 = 2^n * p
  p = 9 (mod 16), n >= 2:  lambda1^2 = 2^n * a_p
  p = 7 (mod 16), n >= 3:  lambda1^2 = 2^n * a_p

For p = 7, 9 (mod 16) the length also satisfies the strict bound chain
lambda1^4 < 2^(2n+1) p < 2^(4n) p (the right-hand member is the fourth
power of the covolume bound 2^n * p^(1/4)).

Which classes are covered, from which level and whether through a_p is
read from the one class table, ``ntheory.COVERAGE``; each query classifies
p once (in _require_covered) and solves the Pell equation at most once.
``classify_prime`` is the query's trust boundary and its one primality
test: every square root the tower then needs (sqrt(-1), sqrt(-2), sqrt(2)
and the theta16 roots) comes from ``ntheory.class_sqrt``, and Cornacchia
and Pell run on it through their trusting cores ``cornacchia_descent`` and
``pell_from_root``.  The public ``cornacchia``, ``theta_roots`` and
``solve_pell`` keep validating their input.

In Z[i], Z[sqrt2], Z[zeta8] and Z[zeta16+zeta16^7] every ideal has a
generator realizing the shortest vector, so shortest-vector search
reduces to shortest-generator search: pick any generator g and minimize
||Sigma(g * eps^m)||^2 = A t^m + B t^(-m) over m (t = eps^2 = 3 + 2 sqrt2,
eps = 1 + sqrt2); the minimum lies in a +-1 window around
x0 = log_t(B/A) / 2.  Witnesses are constructed in the smallest ring of
the tower that sees them and lifted: the shortest vector of an ideal is
still shortest after extension to any higher level, with the squared
length scaling by the degree ratio.

One function, _certify, certifies every answer, the enumeration fallback
(p = 1, 15 mod 16) included: the witness is checked to lie in its base
ideal against the base HNF (the lift is the inclusion, so this covers the
lifted ideal); Cornacchia's witness for p = 3, 5 (mod 8) is also checked
to generate it, by equal covolume, so its zeta-multiples are the base
basis.  The answer is confirmed at rank <= 16 by Schnorr-Euchner enumeration;
a mismatch with the formula (_formula) raises ConsistencyError.
"""

from __future__ import annotations

from collections.abc import Callable
from decimal import Context, Decimal, ROUND_HALF_EVEN
from math import isqrt

from ._record import Record
from .errors import ConsistencyError, DomainError
from .lattice import (
    MAX_ENUMERATION_RANK,
    IntegerLattice,
    SvpCertificate,
    canonical_coeffs,
    contains,
    enumerate_all,
    generator_lattice,
    gram_det,
    lift_lattice_basis,
    lll_reduce,
    prime_ideal_from_factor,
    prime_ideal_lattice,
    svp_enumerate,
)
from .ntheory import (
    ResidueClass,
    class_sqrt,
    classify_prime,
    is_prime,
    _zeta8_root,
    require_level,
    root_of_minus_one,
    sieve_primes,
    sqrt_mod,
)
from .pell import PellSolution, pell_from_root, solve_pell
from .rings import (
    CYCLO_EIGHTH,
    GAUSSIAN_INT,
    QUAD_SQRT2,
    QUARTIC_THETA,
    Ring,
    RingElement,
    as_sqrt2_pair,
    canonical_sq_length,
    conjugate,
    cyclotomic,
    cyclotomic_closure,
    element,
    element_to_json,
    field_norm,
    integer,
    lift_element,
    mul,
    unit,
    zeta_shift,
)

SVSG_RINGS = (GAUSSIAN_INT, QUAD_SQRT2, CYCLO_EIGHTH, QUARTIC_THETA)

_TWELVE = Context(prec=12, rounding=ROUND_HALF_EVEN)


def _root_decimal(n: int, k: int) -> str:
    """n**(1/k), k = 2 or 4, to 12 significant digits, correctly rounded
    half-even, decided in integers.  t = floor(n**(1/k) * 10^j) has at
    least 13 digits, so every 12-digit half-way point is a whole number of
    t's units: a root strictly inside (t, t + 1) rounds as t + 1/10 does.
    An exact root r is an integer and renders as Decimal's sqrt renders
    it, r rounded to 12 digits."""
    j = max(0, 13 - (len(str(n)) - 1) // k)
    x = n * 10 ** (k * j)
    t = isqrt(x) if k == 2 else isqrt(isqrt(x))
    if t**k == x:
        return str(_TWELVE.plus(Decimal(t // 10**j)))
    return str(_TWELVE.plus(Decimal(f"{10 * t + 1}E-{j + 1}")))


def sqrt_decimal(n: int) -> str:
    """sqrt(n) to 12 significant digits, correctly rounded half-even."""
    return _root_decimal(n, 2)


def fourth_root_decimal(n: int) -> str:
    """n**(1/4) to 12 significant digits, correctly rounded half-even."""
    return _root_decimal(n, 4)


def iroot_floor(x: int, k: int) -> int:
    """floor(x ** (1/k)) for x >= 0 and k >= 1, by integer Newton steps."""
    if x < 0:
        raise DomainError("iroot_floor needs x >= 0")
    if k < 1:
        raise DomainError(f"iroot_floor needs k >= 1, got {k}")
    if x < 2 or k == 1:
        return x
    # 2^ceil(bits/k) lies above the root; Newton's iterates then fall
    # monotonically and stop at the floor of the root
    r = 1 << -(-x.bit_length() // k)
    while True:
        y = ((k - 1) * r + x // r ** (k - 1)) // k
        if y >= r:
            return r
        r = y


# ---------------------------------------------------------------------------
# closed-form representations


def cornacchia(p: int, d: int) -> tuple[int, int]:
    """Positive (a, b) with a^2 + d b^2 = p, by the descent from a square
    root of -d mod p.  d = 1 needs p = 1 (mod 4); d = 2 needs p = 1, 3
    (mod 8).  For d = 1 the output is ordered a > b."""
    if d not in (1, 2):
        raise DomainError(f"only d = 1, 2 are supported, got {d}")
    if not is_prime(p) or p == 2:
        raise DomainError(f"{p} is not an odd prime")
    if d == 1 and p % 4 != 1:
        raise DomainError(f"{p} != 1 (mod 4): no representation a^2 + b^2")
    if d == 2 and p % 8 not in (1, 3):
        raise DomainError(f"{p} != 1, 3 (mod 8): no representation a^2 + 2 b^2")
    if d == 2 and p % 8 == 1:  # sqrt(-1) sqrt(2) = rho^2 (rho - rho^3) = rho + rho^3
        return cornacchia_descent(p, 2, class_sqrt(-1, p) * class_sqrt(2, p) % p)
    return cornacchia_descent(p, d, class_sqrt(-d, p))


def cornacchia_descent(p: int, d: int, r: int) -> tuple[int, int]:
    """The descent of ``cornacchia`` from r, a square root of -d mod p.
    Trusts that p is an odd prime of the right class for d."""
    x0 = max(r, p - r)
    a, b = p, x0
    lim = isqrt(p)
    while b > lim:
        a, b = b, a % b
    c, rem = divmod(p - b * b, d)
    t = isqrt(c)
    if rem or t * t != c:
        raise ConsistencyError(f"Cornacchia descent failed for p={p}, d={d}")
    if d == 1 and b < t:
        b, t = t, b
    return b, t


def theta_roots(p: int) -> list[int]:
    """Roots of x^4 + 4x^2 + 2 mod the odd prime p (sorted).  Nonempty iff
    p = 1, 7 (mod 16), where the quartic splits completely."""
    if p == 2 or not is_prime(p):
        raise DomainError(f"{p} is not an odd prime")
    return _theta_roots(p, sqrt_mod)


def _theta_roots(p: int, sqrt: Callable[[int, int], int | None]) -> list[int]:
    """theta_roots with the square roots taken by sqrt: x^2 = -2 +- sqrt2.
    The tower passes class_sqrt, which covers p = 7 (mod 16)."""
    s = sqrt(2, p) if p % 8 in (1, 7) else None
    if s is None:
        return []
    roots = []
    for y in ((s - 2) % p, (-s - 2) % p):
        r = sqrt(y, p)
        if r is not None:
            roots.extend((r, p - r))
    return sorted(roots)


# ---------------------------------------------------------------------------
# shortest-generator machinery (SVSG rings)


def _generator_bound_sq(ring: Ring, norm: int) -> int:
    """Upper bound on the squared length of the shortest generator of an
    ideal of the given norm: 2N for Z[i], 2*sqrt2*N for Z[sqrt2], and
    4*sqrt2*sqrt(N) for the two quartic rings."""
    if ring is GAUSSIAN_INT:
        return 2 * norm
    if ring is QUAD_SQRT2:
        return isqrt(8 * norm * norm)
    return isqrt(32 * norm)


def _pair_step(u: int, v: int, up: bool) -> tuple[int, int]:
    """Multiply u + v*sqrt2 by eps^2 = 3 + 2*sqrt2 (or its inverse)."""
    if up:
        return 3 * u + 4 * v, 2 * u + 3 * v
    return 3 * u - 4 * v, -2 * u + 3 * v


def _window_min(g: RingElement) -> tuple[int, int, RingElement]:
    """Minimize ||Sigma(g * eps^m)||^2 over m.

    Returns (min_sq, m, g * eps^m), with the smallest m on a tie.  The
    value is scale * u_m, where u_m + v_m sqrt2 = c * t^m (t = eps^2) and
    u_m = (A t^m + B t^(-m)) / 2 with A, B the two real embeddings of c,
    which is strictly convex in m.  The walk starts at m = 0 and moves
    while the exact integer u_m does not increase; by convexity it reaches
    the same minimum from any start.  Its caller passes the shortest
    generator that enumeration found, so the walk is short.
    """
    ring = g.ring
    base_sq = canonical_sq_length(g)
    if not ring.has_sqrt2:
        return base_sq, 0, g
    c1 = mul(g, g) if ring is QUAD_SQRT2 else mul(g, conjugate(g))
    u0, v0 = as_sqrt2_pair(c1)
    scale = 2 if ring is QUAD_SQRT2 else 4
    if scale * u0 != base_sq:
        raise ConsistencyError("conjugate-pair decomposition disagrees with the Gram form")
    norm = u0 * u0 - 2 * v0 * v0  # A * B
    if u0 <= 0 or norm <= 0:
        raise ConsistencyError("generator square is not totally positive")
    u, v, m = u0, v0, 0
    while True:  # down while not increasing: the smallest m on a tie
        du, dv = _pair_step(u, v, up=False)
        if du > u:
            break
        u, v, m = du, dv, m - 1
    while True:
        uu, uv = _pair_step(u, v, up=True)
        if uu >= u:
            break
        u, v, m = uu, uv, m + 1
    return scale * u, m, mul(g, unit(ring, 0, m))


def canonical_torsion_rep(w: RingElement) -> RingElement:
    """Deterministic representative of {torsion * w}: the sign-normalized
    coefficient vector that is lexicographically smallest.  In a
    cyclotomic ring the torsion is +-zeta^j and the candidates are the d
    rotations zeta^j * w; elsewhere it is +-1.  More leading zeros make a
    smaller vector, so only the rotations that move a support place
    following a widest cyclic gap g of the support to place g - 1
    compete: O(s d) for s nonzero coefficients."""
    ring = w.ring
    if ring.cyclo_level is None:
        return element(ring, canonical_coeffs(w.coeffs))
    d = ring.degree
    support = [i for i, c in enumerate(w.coeffs) if c]
    if not support:
        return w
    gaps = [(s - prev) % d or d for prev, s in zip(support[-1:] + support, support)]
    widest = max(gaps)
    return element(ring, min(canonical_coeffs(zeta_shift(w, widest - 1 - s).coeffs)
                             for s, g in zip(support, gaps) if g == widest))


def _svsg_core(lat: IntegerLattice, norm: int) -> tuple[int, int, RingElement]:
    """(lambda1_sq, shortest_generator_sq, shortest_generator).

    lambda1 comes from full enumeration below the generator bound; the
    generator length from the unit-window search seeded by the shortest
    enumerated vector of norm +-N.  The two generator routes (window vs.
    filtered enumeration) must agree or ConsistencyError is raised.
    """
    ring = lat.ring
    radius = _generator_bound_sq(ring, norm)
    vecs = enumerate_all(lat, radius)
    if not vecs:
        raise ConsistencyError(
            f"no vector of {lat} within the generator bound {radius}"
        )
    lam = vecs[0][1]
    gen_candidates = [(sq, v) for v, sq in vecs if abs(field_norm(v)) == norm]
    if not gen_candidates:
        raise ConsistencyError(
            f"no generator of norm {norm} within the bound; principality violated?"
        )
    enum_gen_sq, g = min(gen_candidates, key=lambda t: (t[0], t[1].coeffs))
    win_sq, _, g_best = _window_min(g)
    if win_sq != enum_gen_sq:
        raise ConsistencyError(
            f"window search ({win_sq}) and filtered enumeration ({enum_gen_sq}) disagree"
        )
    return lam, win_sq, g_best


def shortest_generator(p: int, ring: Ring, r: int) -> SvpCertificate:
    """Shortest generator of the degree-1 prime ideal (p, th - r).

    By the shortest-vector/shortest-generator equivalence in the four
    supported rings this is also the shortest vector; the equality is
    verified by enumeration and a mismatch raises ConsistencyError.
    """
    if ring not in SVSG_RINGS:
        raise DomainError(f"{ring.name} is not one of the generator-search rings")
    lat = prime_ideal_lattice(ring, p, r)
    lam, gen_sq, g = _svsg_core(lat, p)
    if lam != gen_sq:
        raise ConsistencyError(
            f"shortest generator ({gen_sq}) is longer than lambda1 ({lam}) for "
            f"(p={p}, r={r}) in {ring.name}"
        )
    return SvpCertificate(canonical_torsion_rep(g), gen_sq, "generator-search", True)


# ---------------------------------------------------------------------------
# prime ideal inventory (for verification suites)


def _poly_eval_mod(poly, x, p):
    acc = 0
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return acc


def _quadratic_factors(ring: Ring, p: int) -> list[list[int]] | None:
    """Monic quadratic factors of the quartic defining polynomial mod an
    odd p without linear roots, or None when it is irreducible."""
    if ring is CYCLO_EIGHTH:
        # x^4 + 1 is never irreducible mod p
        if p % 8 == 3:
            t = class_sqrt(-2, p)
            return [[p - 1, (-t) % p, 1], [p - 1, t % p, 1]]
        if p % 8 == 5:
            s = class_sqrt(-1, p)
            return [[(-s) % p, 0, 1], [s % p, 0, 1]]
        if p % 8 == 7:
            s = class_sqrt(2, p)
            return [[1, (-s) % p, 1], [1, s % p, 1]]
        raise ConsistencyError(f"x^4 + 1 has roots mod {p}, factor path unreachable")
    if ring is QUARTIC_THETA:
        if p % 8 not in (1, 7):
            return None  # no sqrt2 mod p: irreducible
        s = class_sqrt(2, p)
        return [[(2 - s) % p, 0, 1], [(2 + s) % p, 0, 1]]
    raise DomainError(f"{ring.name} is not quartic")


def prime_ideals_up_to_norm(ring: Ring, norm_bound: int):
    """All prime ideals of the ring with norm <= norm_bound.

    Yields (lattice, norm, description) triples: degree-1 ideals from the
    roots of the defining polynomial mod p, degree-2 ideals from its
    quadratic factors (quartic rings), and inert ideals (p), each built
    from its factor g (the defining polynomial itself for (p)).
    """
    out = []
    for p in sieve_primes(norm_bound):
        roots = [r for r in range(p) if _poly_eval_mod(ring.poly, r, p) == 0]
        for r in roots:
            out.append((prime_ideal_lattice(ring, p, r), p, f"({p}, th-{r})"))
        if roots or p * p > norm_bound:
            continue
        factors = None if ring.degree == 2 else _quadratic_factors(ring, p)
        for g in factors or [ring.poly]:
            norm = p ** (len(g) - 1)
            if norm <= norm_bound:
                desc = f"({p}) inert" if factors is None else f"({p}, g(th)) deg-2"
                out.append((prime_ideal_from_factor(ring, p, g), norm, desc))
    return out


class SvsgEntry(Record):
    __slots__ = ("p", "norm", "ideal", "lambda1_sq", "generator_sq", "match", "detail")

    def __init__(
        self,
        p: int,
        norm: int,
        ideal: str,
        lambda1_sq: int | None,
        generator_sq: int | None,
        match: bool,
        detail: str = "",
    ):
        self._fill(p, norm, ideal, lambda1_sq, generator_sq, match, detail)


class SvsgReport(Record):
    __slots__ = ("ring", "norm_bound", "entries")

    def __init__(self, ring: str, norm_bound: int, entries: tuple[SvsgEntry, ...]):
        self._fill(ring, norm_bound, entries)

    @property
    def mismatches(self) -> tuple[SvsgEntry, ...]:
        return tuple(e for e in self.entries if not e.match)

    @property
    def passed(self) -> bool:
        return not self.mismatches


def svsg_verify(ring: Ring, norm_bound: int) -> SvsgReport:
    """Check shortest vector == shortest generator on every prime ideal of
    norm <= norm_bound.  Returns a per-ideal report; a nonzero mismatch
    list means failure; a bound below 2, which holds no ideal, is refused."""
    if ring not in SVSG_RINGS:
        raise DomainError(f"{ring.name} is not one of the generator-search rings")
    if norm_bound < 2:
        raise DomainError(f"norm bound must be at least 2, got {norm_bound}")
    entries = []
    for lat, norm, desc in prime_ideals_up_to_norm(ring, norm_bound):
        p = lat.ideal_meta[0]
        try:
            lam, gen_sq, _ = _svsg_core(lat, norm)
            entries.append(SvsgEntry(p, norm, desc, lam, gen_sq, lam == gen_sq))
        except ConsistencyError as exc:
            entries.append(SvsgEntry(p, norm, desc, None, None, False, str(exc)))
    return SvsgReport(ring.name, norm_bound, tuple(entries))


# ---------------------------------------------------------------------------
# the tower: witnesses, lifting, length formulas


def _base_witness(p: int, label: str, n: int, root_hint: int | None):
    """(base HNF lattice, witness) in the smallest ring of the tower that
    contains the shortest vector.  For p = 3, 5 (mod 8) the witness is
    Cornacchia's generator of the base ideal; for p = 7, 9 (mod 16) and
    the fallback's base at level n (p = 1, 15 mod 16) it is None:
    _certify enumerates the reduced base."""
    if label == "5mod8" or (label == "9mod16" and n == 1):
        a, b = cornacchia_descent(p, 1, class_sqrt(-1, p))
        r0 = (-a * pow(b, -1, p)) % p
        if root_hint is not None and root_hint % p not in (r0, p - r0):
            raise DomainError(f"{root_hint} is not a square root of -1 mod {p}")
        if root_hint is not None and root_hint % p == p - r0:  # the conjugate ideal
            b, r0 = -b, p - r0
        return prime_ideal_lattice(GAUSSIAN_INT, p, r0), element(GAUSSIAN_INT, (a, b))
    if label == "3mod8":
        if root_hint is not None:
            raise DomainError("p = 3 (mod 8): the base ideal has no degree-1 root")
        if n == 1:
            # p is inert in Z[i]; the ideal (p) has shortest vector p itself
            return prime_ideal_from_factor(GAUSSIAN_INT, p, [1, 0, 1]), integer(GAUSSIAN_INT, p)
        a, b = cornacchia_descent(p, 2, class_sqrt(-2, p))
        w = element(CYCLO_EIGHTH, (a, b, 0, b))  # a + b*sqrt(-2)
        # (w) = (p, g(zeta)): sqrt(-2) = zeta + zeta^3 = zeta - zeta^-1 is
        # -a/b mod (w), so zeta is a root of g = x^2 + (a/b) x - 1
        return prime_ideal_from_factor(CYCLO_EIGHTH, p, [p - 1, a * pow(b, -1, p) % p, 1]), w
    if label == "9mod16":
        ring = CYCLO_EIGHTH
        r = root_hint if root_hint is not None else _zeta8_root(p)
    elif label == "7mod16":
        ring = QUARTIC_THETA
        roots = _theta_roots(p, class_sqrt) if root_hint is None else [root_hint]
        if not roots:
            raise ConsistencyError(f"theta quartic has no roots mod {p}")
        r = roots[0]
    else:  # no formula: the enumeration fallback
        if root_hint is not None:
            raise DomainError("the enumeration fallback chooses its own ideal; "
                              "root_hint is not accepted")
        return _fallback_base(p, n), None
    return prime_ideal_lattice(ring, p, r), None


def _require_covered(p: int, n: int, enumerate_fallback: bool = False) -> ResidueClass:
    """Classify p and check n against the class table, once per query; an
    uncovered class passes only when the caller enumerates instead."""
    rc = classify_prime(p)
    require_level(n)
    if not rc.supported:
        if enumerate_fallback:
            return rc
        raise DomainError(
            f"p = {p} = {rc.class_mod16} (mod 16): no length formula",
            payload={"error": "class_not_covered", "class_mod16": str(rc.class_mod16)},
        )
    if n < rc.min_level and rc.level1_note is None:  # p = 7 (mod 16) at n = 1, 2
        raise DomainError(
            f"p = {rc.class_mod16} (mod 16) needs level n >= {rc.min_level} "
            f"(zeta_16 must embed), got {n}"
        )
    return rc


def _pell_if_solvable(p: int) -> PellSolution | None:
    """The solution of a^2 - 2b^2 = p where it exists, i.e. p = +-1 (mod 8),
    for a p that classify_prime accepted: the root of 2 comes from the
    class and no primality test runs."""
    return pell_from_root(p, class_sqrt(2, p)) if p % 8 in (1, 7) else None


def _lift_check(base: Callable[[], IntegerLattice], w: RingElement, sq: int,
                target: Ring):
    """Lift w, a shortest vector of squared length sq in the ideal lattice
    base(), to the target ring.  Returns (lifted w, lifted squared length,
    certificate of the re-enumeration or None).

    The caller has shown that w lies in base(); the lift is the inclusion
    and I * O_L meets O_K in I, so the lifted w lies in the lifted ideal.
    The squared length must scale by the degree ratio; at target rank <=
    the enumeration cap enumerating the lifted ideal must find nothing
    shorter, and the vector it returns must have the expected length.
    base is called only then.  The lifted ideal is enumerated on the
    basis zeta^j * b_i lifted from the LLL-reduced base
    (lift_lattice_basis), not on an HNF, whose diagonal carries p.  A
    zsqrt2 or theta16 base is lifted first to its cyclotomic closure
    (zeta8, zeta16) and reduced there at rank 4 or 8; from a cyclotomic
    basis the lift keeps the zeta^j multiples orthogonal, so the rank-2^n
    lattice is r reduced blocks whose Gram matrix is read off the block
    structure.  Enumeration returns the least sign-normalized shortest
    vector whatever the basis, so the certificate is the same."""
    expected = sq * (target.degree // w.ring.degree)
    w_lift = lift_element(w, target)
    if canonical_sq_length(w_lift) != expected:
        raise ConsistencyError("lift did not scale the squared length by the degree ratio")
    if target.degree > MAX_ENUMERATION_RANK:
        return w_lift, expected, None
    reduced = lll_reduce(base())
    closure = cyclotomic_closure(reduced.ring)
    if closure is not reduced.ring and closure is not target:
        reduced = lll_reduce(lift_lattice_basis(reduced, closure))
    cert = svp_enumerate(lift_lattice_basis(reduced, target), expected)
    if cert.sq_length != expected:
        raise ConsistencyError(
            f"enumeration in {target.name} found {cert.sq_length} != {expected}"
        )
    measured = canonical_sq_length(cert.vector)
    if measured != expected:
        raise ConsistencyError(
            f"enumeration in {target.name} returned a vector of squared length "
            f"{measured}, not {expected}"
        )
    return w_lift, expected, cert


def _certify(rc: ResidueClass, n: int, root_hint: int | None) -> SvpCertificate:
    """The one certification of a lambda1 answer, for a (p, n) that
    _require_covered accepted.  A witness w from _base_witness lies in the
    base ideal P and its basis zeta^j * w has P's covolume, so (w) = P and
    that basis, already reduced, is the lift check's base: the paper's
    generator method.  A base without a witness is LLL-reduced once, for
    its own enumeration and for the lift check.  ``cross_checked``
    (printed as ``certified``) means that enumeration at level n agreed
    and that a formula (rc.supported) is there to compare: a fallback
    answer is an exact enumeration, but not certified."""
    base_lat, w = _base_witness(rc.p, rc.label, n, root_hint)
    target = cyclotomic(n)
    if w is None:
        base = lll_reduce(base_lat)
        found = svp_enumerate(base)
        w, sq, method = found.vector, found.sq_length, "enumeration"
    else:
        base, sq, method = generator_lattice(w), canonical_sq_length(w), "analytic-formula"
    if not contains(base_lat, w):
        raise ConsistencyError(f"witness lies outside the base ideal over p={rc.p}")
    if method == "analytic-formula" and gram_det(base.gram) != gram_det(base_lat.gram):
        raise ConsistencyError(f"witness does not generate the base ideal over p={rc.p}")
    if method == "enumeration" and base.ring is target:  # 9 (mod 16) at n = 2, the fallback
        return SvpCertificate(w, sq, method, rc.supported)
    w_lift, expected, cert = _lift_check(lambda: base, w, sq, target)
    if cert is None:
        return SvpCertificate(canonical_torsion_rep(w_lift), expected, method, False)
    return SvpCertificate(cert.vector, expected, method, rc.supported)


def _formula(rc: ResidueClass, n: int, pell: PellSolution | None):
    """(lambda1^2, new-bound radicand, Minkowski radicand) by the length
    formula of a covered class at level n; the radicands are None unless
    the formula uses a_p, and then the chain lambda1^4 < 2^(2n+1) p <
    2^(4n) p is checked.  Below the class's min_level (n = 1) the value
    is that of the inert ideal (p), or of the split Z[i] case."""
    p = rc.p
    if n < rc.min_level:
        return (2 * p * p if rc.class_mod8 == 3 else 2 * p), None, None
    if not rc.uses_a_p:
        return (1 << n) * p, None, None
    lam = (1 << n) * pell.a
    new_rad, mink_rad = (1 << (2 * n + 1)) * p, (1 << (4 * n)) * p
    if not lam * lam < new_rad < mink_rad:
        raise ConsistencyError(f"bound chain violated at p={p}, n={n}")
    return lam, new_rad, mink_rad


def shortest_vector(p: int, n: int, root_hint: int | None = None) -> SvpCertificate:
    """Shortest-vector witness for the prime ideal over p at tower level n:
    lambda1_squared's, so both share one admission, one certification and
    one comparison with the formula."""
    return lambda1_squared(p, n, root_hint).witness


class Lambda1Result(Record):
    """Shortest length of the prime ideal over p at level n, with witness
    and the two upper-bound radicands (fourth powers), where covered, and
    the fundamental solution of a^2 - 2b^2 = p where it exists."""

    __slots__ = ("p", "n", "residue_class", "lambda1_sq", "witness",
                 "bound_new_radicand", "bound_minkowski_radicand", "note", "pell")

    def __init__(
        self,
        p: int,
        n: int,
        residue_class: ResidueClass,
        lambda1_sq: int,
        witness: SvpCertificate,
        bound_new_radicand: int | None,
        bound_minkowski_radicand: int | None,
        note: str | None = None,
        pell: PellSolution | None = None,
    ):
        self._fill(p, n, residue_class, lambda1_sq, witness,
                   bound_new_radicand, bound_minkowski_radicand, note, pell)


def lambda1_squared(
    p: int,
    n: int,
    root_hint: int | None = None,
    enumerate_fallback: bool = False,
) -> Lambda1Result:
    """Exact squared shortest length, witness included.

    Covered classes dispatch to the closed formulas above; the witness is
    cross-checked by enumeration whenever the rank is <= 16.  Uncovered
    classes (p = 1, 15 mod 16) raise DomainError unless
    ``enumerate_fallback`` is set; then the enumeration of the fallback
    base is the answer and no bound radicands are reported.
    ``root_hint`` picks the degree-1 root of the base ideal; it is refused
    where the base has none (p = 3 mod 8) and by the fallback.
    """
    rc = _require_covered(p, n, enumerate_fallback)
    pell = _pell_if_solvable(p)
    witness = _certify(rc, n, root_hint)
    if not rc.supported:
        return Lambda1Result(p, n, rc, witness.sq_length, witness, None, None,
                             "enumeration fallback; no formula for this class", pell)
    lam, new_rad, mink_rad = _formula(rc, n, pell)
    if witness.sq_length != lam:
        raise ConsistencyError(
            f"formula gives {lam} but witness has length {witness.sq_length}"
        )
    note = rc.level1_note if n < rc.min_level else None
    return Lambda1Result(p, n, rc, lam, witness, new_rad, mink_rad, note, pell)


def lambda1_sq_zsqrt2(p: int) -> int:
    """Squared shortest length of a prime ideal over p in Z[sqrt2]:
    2 * min(2 a_p^2 - p, 2 a_{-p}^2 + p) for p = 1, 7 (mod 8).

    Also asserts the bound lambda1 <= sqrt(2 sqrt2 p) in the exact
    fourth-power form lambda1^4 <= 8 p^2."""
    plus = solve_pell(p, 1)
    minus = PellSolution(p, -1, plus.a - 2 * plus.b, plus.a - plus.b)
    lam = 2 * min(2 * plus.a * plus.a - p, 2 * minus.a * minus.a + p)
    if lam * lam > 8 * p * p:
        raise ConsistencyError(f"lambda1^4 <= 8 p^2 violated at p={p}")
    return lam


def lift_shortest(cert: SvpCertificate, n: int) -> SvpCertificate:
    """Lift a shortest-vector certificate to tower level n.

    The witness must generate its ideal (all certificates produced by this
    module do).  The squared length scales by the degree ratio; at target
    rank <= 16 the lifted principal ideal is re-enumerated and finding
    anything shorter raises ConsistencyError."""
    require_level(n)
    target = cyclotomic(n)
    if cert.vector.ring is target:
        return cert
    w2, sq2, check = _lift_check(lambda: generator_lattice(cert.vector),
                                 cert.vector, cert.sq_length, target)
    return SvpCertificate(canonical_torsion_rep(w2), sq2, cert.method, check is not None)


class BoundsResult(Record):
    __slots__ = ("p", "n", "lambda1_sq", "new_bound_radicand", "minkowski_radicand",
                 "lambda1_decimal", "bound_new_decimal", "bound_minkowski_decimal")

    def __init__(
        self,
        p: int,
        n: int,
        lambda1_sq: int,
        new_bound_radicand: int,  # lambda1 < (this)^(1/4) = (2^(2n+1) p)^(1/4)
        minkowski_radicand: int,  # (2^n p^(1/4))^4 = 2^(4n) p
        lambda1_decimal: str,
        bound_new_decimal: str,
        bound_minkowski_decimal: str,
    ):
        self._fill(p, n, lambda1_sq, new_bound_radicand, minkowski_radicand,
                   lambda1_decimal, bound_new_decimal, bound_minkowski_decimal)


def bounds(p: int, n: int) -> BoundsResult:
    """lambda1 and the two upper bounds for p = 7, 9 (mod 16), exact
    radicands plus 12-significant-digit decimal renderings."""
    rc = classify_prime(p)
    if not rc.uses_a_p:
        raise DomainError(
            f"the tight bound covers p = 7, 9 (mod 16) only; p = {p} is {rc.label}",
            payload={"error": "class_not_covered", "class_mod16": str(rc.class_mod16)},
        )
    if n < rc.min_level:
        raise DomainError(f"class {rc.label} needs level n >= {rc.min_level}, got {n}")
    require_level(n)
    lam, new_rad, mink_rad = _formula(rc, n, _pell_if_solvable(p))
    return BoundsResult(
        p,
        n,
        lam,
        new_rad,
        mink_rad,
        sqrt_decimal(lam),
        fourth_root_decimal(new_rad),
        fourth_root_decimal(mink_rad),
    )


# ---------------------------------------------------------------------------
# zeta16 lift check (p = 7 mod 16)


class LiftCheckReport(Record):
    __slots__ = ("p", "subfield_sq", "extension_sq", "four_a_p", "ratio_exact",
                 "witness_attains")

    def __init__(
        self,
        p: int,
        subfield_sq: int,
        extension_sq: int,
        four_a_p: int,
        ratio_exact: bool,
        witness_attains: bool,
    ):
        self._fill(p, subfield_sq, extension_sq, four_a_p, ratio_exact, witness_attains)

    @property
    def passed(self) -> bool:
        return self.ratio_exact and self.witness_attains


def zeta16_lift_check(p: int) -> LiftCheckReport:
    """Independent check that the shortest vector of the rank-4 ideal in
    Z[zeta16+zeta16^7] stays shortest in its rank-8 extension to
    Z[zeta16], with squared lengths in exact ratio 2."""
    if p % 16 != 7:
        raise DomainError(f"p must be 7 (mod 16), got {p} = {p % 16} (mod 16)")
    classify_prime(p)
    r = _theta_roots(p, class_sqrt)[0]
    base = prime_ideal_lattice(QUARTIC_THETA, p, r)
    sub = svp_enumerate(base, _generator_bound_sq(QUARTIC_THETA, p))
    # t = zeta + zeta^7 = zeta - zeta^-1, so (p, t - r) extends to
    # (p, zeta^2 - r zeta - 1), built directly rather than lifted
    ext_lat = prime_ideal_from_factor(cyclotomic(3), p, [p - 1, -r % p, 1])
    ext = svp_enumerate(ext_lat, 2 * sub.sq_length)
    w = lift_element(sub.vector, cyclotomic(3))
    attains = (
        canonical_sq_length(w) == ext.sq_length and contains(ext_lat, w)
    )
    return LiftCheckReport(
        p,
        sub.sq_length,
        ext.sq_length,
        4 * _pell_if_solvable(p).a,
        ext.sq_length == 2 * sub.sq_length,
        attains,
    )


# ---------------------------------------------------------------------------
# enumeration fallback base for uncovered classes (p = 1, 15 mod 16)


def _gf2_mul(x, y, p, q):
    a, b = x
    c, d = y
    return ((a * c + q * b * d) % p, (a * d + b * c) % p)


def _gf2_pow(x, e, p, q):
    acc = (1, 0)
    base = x
    while e:
        if e & 1:
            acc = _gf2_mul(acc, base, p, q)
        base = _gf2_mul(base, base, p, q)
        e >>= 1
    return acc


def _degree2_prime_lattice(p: int, n: int) -> IntegerLattice:
    """Prime ideal of Z[zeta_{2^(n+1)}] over p with residue degree 2, the
    kernel of zeta -> beta for a root beta of x^(2^n) = -1 in GF(p^2):
    (p, g(zeta)) for g the minimal polynomial of beta over GF(p)."""
    ring = cyclotomic(n)
    order = 2 * ring.degree
    q = 2
    while pow(q, (p - 1) // 2, p) != p - 1:  # Euler's criterion: q a non-residue
        q += 1
    g0 = 1
    while True:
        g0 += 1
        beta = _gf2_pow((g0 % p, 1), (p * p - 1) // order, p, q)
        if _gf2_pow(beta, order // 2, p, q) == (p - 1, 0):
            break
    b0, b1 = beta
    if b1 == 0:
        raise ConsistencyError("beta landed in the prime field; expected degree 2")
    # (x - beta)(x - beta^p), beta^p = b0 - b1 sqrt(q)
    g = [(b0 * b0 - q * b1 * b1) % p, -2 * b0 % p, 1]
    return prime_ideal_from_factor(ring, p, g)


def _fallback_base(p: int, n: int) -> IntegerLattice:
    """The tower base of an uncovered class: a prime ideal over p of
    residue degree 1 or 2 in Z[zeta_{2^(n+1)}] itself, for _certify to
    enumerate, so the rank is capped."""
    d = 1 << n
    if d > MAX_ENUMERATION_RANK:  # refused before the ring is built
        raise DomainError(f"enumeration fallback needs rank <= {MAX_ENUMERATION_RANK}, got {d}")
    ring = cyclotomic(n)
    order = 2 * d
    if (p - 1) % order == 0:
        return prime_ideal_lattice(ring, p, root_of_minus_one(p, n))
    if (p * p - 1) % order == 0:
        return _degree2_prime_lattice(p, n)
    raise DomainError(f"no prime ideal of residue degree <= 2 over {p} at level {n}")


# ---------------------------------------------------------------------------
# JSON rendering


def result_to_json(res: Lambda1Result) -> dict:
    sol = res.pell
    data = {
        "p": str(res.p),
        "n": str(res.n),
        "class_mod16": str(res.residue_class.class_mod16),
        "a_p": str(sol.a) if sol else None,
        "b_p": str(sol.b) if sol else None,
        "lambda1_squared": str(res.lambda1_sq),
        "lambda1_decimal": sqrt_decimal(res.lambda1_sq),
        "bound_new_decimal": (
            fourth_root_decimal(res.bound_new_radicand)
            if res.bound_new_radicand
            else None
        ),
        "bound_minkowski_decimal": (
            fourth_root_decimal(res.bound_minkowski_radicand)
            if res.bound_minkowski_radicand
            else None
        ),
        "witness": element_to_json(res.witness.vector),
        "method": res.witness.method,
        "certified": res.witness.cross_checked,
    }
    if res.note:
        data["note"] = res.note
    return data
