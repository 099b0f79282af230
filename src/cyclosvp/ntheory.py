"""Elementary modular arithmetic: primality, Legendre symbols, square roots
mod p, roots of unity mod p, and residue-class data for odd primes.

Everything here is exact integer arithmetic.  ``is_prime`` is deterministic
below 2**64 (fixed Miller-Rabin witness set) and a strong probable-prime
test above; ``is_probable_only`` tells callers which regime applies.

The trust boundary of a tower query is ``classify_prime``: it tests p once
(through ``require_prime``), and from then on the tower takes every square
root it needs from the residue class of p with ``class_sqrt``, one modular
power and no further primality test.  ``legendre`` and ``sqrt_mod`` stay
validating: they serve callers that hand in an untested modulus.
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._record import Record
from .errors import DomainError

# Deterministic Miller-Rabin witnesses for n < 2**64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_DETERMINISTIC_LIMIT = 1 << 64

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_probable_only(n: int) -> bool:
    """True when primality of ``n`` rests on a probable-prime test."""
    return n >= _DETERMINISTIC_LIMIT


def is_prime(n: int) -> bool:
    """Primality test, deterministic for n < 2**64.

    Raises DomainError for n < 2.
    """
    if n < 2:
        raise DomainError(f"primality is defined for n >= 2, got {n}")
    for q in _SMALL_PRIMES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def require_prime(p: int) -> int:
    """p itself when it is prime; DomainError with the ``not_prime``
    payload when p < 2 or composite."""
    if p < 2 or not is_prime(p):
        raise DomainError(f"{p} is not prime", payload={"error": "not_prime"})
    return p


def sieve_primes(limit: int) -> list[int]:
    """All primes p <= limit, by sieve of Eratosthenes."""
    if limit < 2:
        return []
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for q in range(2, math.isqrt(limit) + 1):
        if flags[q]:
            flags[q * q :: q] = bytearray(len(flags[q * q :: q]))
    return [i for i in range(limit + 1) if flags[i]]


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1}, by Euler's criterion."""
    if p == 2 or not is_prime(p):
        raise DomainError(f"Legendre symbol needs an odd prime modulus, got {p}")
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return -1 if t == p - 1 else t


def sqrt_mod(a: int, p: int) -> int | None:
    """Canonical square root of ``a`` mod the odd prime ``p``.

    Returns r = min(r, p - r) with r*r = a (mod p), or None when ``a`` is a
    quadratic non-residue (a marker, not an error: callers branch on it).
    For a = 2 with p = 7 (mod 8) the closed form 2**((p+1)/4) mod p is
    used; p = 3 (mod 4) uses the standard exponent shortcut; the remaining
    case is Tonelli-Shanks.
    """
    if p == 2:
        raise DomainError(f"sqrt_mod needs an odd prime modulus, got {p}")
    require_prime(p)
    a %= p
    if a == 0:
        raise DomainError("sqrt_mod requires gcd(a, p) = 1")
    if a == 1:
        return 1
    if a == 2 % p and p % 8 == 7:
        r = pow(2, (p + 1) // 4, p)
        return min(r, p - r)
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return min(r, p - r)
    # Tonelli-Shanks: write p - 1 = q * 2**s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return min(r, p - r)


def root_of_minus_one(p: int, k: int) -> int:
    """Smallest r in [1, p-1] with r**(2**k) = -1 (mod p).

    Such r exists iff 2**(k+1) divides p - 1.  The full set of roots is
    the set of elements of exact order 2**(k+1); the minimum is returned
    for reproducibility, whichever g finds them (for k >= 2, 2 is a square
    mod p = 1 (mod 8), so g starts at 3).  Raises DomainError when p is
    shown composite on the way: r**(2**k) = g**((p-1)/2) must be +-1 mod a
    prime (Euler's criterion).
    """
    order = 1 << (k + 1)
    if (p - 1) % order != 0:
        raise DomainError(f"x^{1 << k} = -1 has no root mod {p}")
    for g in range(3 if k >= 2 else 2, p):
        r = pow(g, (p - 1) // order, p)
        t = pow(r, order // 2, p)
        if t == p - 1:
            break
        if t != 1:
            raise DomainError(f"{p} is not prime: {g}^(({p}-1)/2) is not +-1 mod {p}")
    else:
        raise DomainError(f"x^{1 << k} = -1 has no root mod {p}")
    best = min(pow(r, j, p) for j in range(1, order, 2))
    return best


@lru_cache(maxsize=1)
def _zeta8_root(p: int) -> int:
    """root_of_minus_one(p, 2), kept for the last p: a 9 (mod 16) query
    needs it for the zeta8 ideal and for sqrt(2) in class_sqrt."""
    return root_of_minus_one(p, 2)


def class_sqrt(a: int, p: int) -> int | None:
    """Canonical square root min(r, p - r) of ``a`` mod a prime p that the
    caller has already tested, from the roots the class of p supplies.

    - p = 3 (mod 4): r = a**((p+1)/4), kept only when it squares back to
      a (which replaces Euler's criterion); None marks a non-residue.
    - p = 5 (mod 8): only sqrt(-1) = 2**((p-1)/4), since 2 is a non-residue.
    - p = 1 (mod 8): only sqrt(2) = rho - rho**3 and sqrt(-1) = rho**2,
      with rho = _zeta8_root(p) the image of zeta8.

    These are the roots the tower's witnesses, ``cornacchia`` (which takes
    sqrt(-2) for p = 1 (mod 8) as sqrt(-1) sqrt(2)) and the quartic factors
    of the prime-ideal inventory are built from; every other (a, class)
    pair raises DomainError.  Each root equals ``sqrt_mod(a, p)``.  No
    primality test runs: ``classify_prime``, ``cornacchia`` or the sieve
    has vouched for p.  ``sqrt_mod``, ``legendre`` and ``solve_pell`` keep
    their own checks, internal re-tests included: they are the
    validating path for callers that pass an untested modulus, such as
    the ``pell`` and ``sqrtmod`` commands.
    """
    a %= p
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        if r * r % p != a:
            return None
    elif p % 8 == 5 and a == p - 1:
        r = pow(2, (p - 1) // 4, p)
    elif p % 8 == 1 and a in (2, p - 1):
        rho = _zeta8_root(p)
        r = (rho - pow(rho, 3, p)) % p if a == 2 else rho * rho % p
    else:
        raise DomainError(f"no class root of {a} mod {p}")
    return min(r, p - r)


class ResidueClass(Record):
    """Residue-class data of an odd prime with its decomposition tower.

    The coverage fields come from ``COVERAGE``, the class table and the
    package's only statement of which classes have a length formula
    (``supported``: p = 3, 5 mod 8 and 7, 9 mod 16).  ``min_level`` is the
    smallest tower level n (ring Z[zeta_{2^{n+1}}]) the formula covers,
    ``uses_a_p`` marks the classes whose length rests on a_p (the ones the
    tight bound covers) and ``level1_note`` names the ideal answered at
    level 1 below ``min_level``; unsupported classes get None, False, None.
    """

    __slots__ = ("p", "class_mod8", "class_mod16", "supported", "min_level",
                 "splitting", "label", "uses_a_p", "level1_note")

    def __init__(
        self,
        p: int,
        class_mod8: int,
        class_mod16: int,
        supported: bool,
        min_level: int | None,
        splitting: tuple[str, ...],
        label: str,
        uses_a_p: bool,
        level1_note: str | None,
    ):
        self._fill(p, class_mod8, class_mod16, supported, min_level,
                   splitting, label, uses_a_p, level1_note)


class Coverage(Record):
    """One row of the class table."""

    __slots__ = ("min_level", "uses_a_p", "level1_note")

    def __init__(self, min_level: int | None, uses_a_p: bool,
                 level1_note: str | None = None):
        self._fill(min_level, uses_a_p, level1_note)


_SPLITTING = {
    "5mod8": (
        "splits into two degree-1 primes in Z[i]",
        "inert in Z[zeta8] and at every higher level",
    ),
    "3mod8": (
        "inert in Z[i]",
        "splits into two degree-2 primes in Z[zeta8]",
        "inert in Z[zeta16] and at every higher level",
    ),
    "9mod16": (
        "splits into two degree-1 primes in Z[sqrt2]",
        "each splits again in Z[zeta8]: four degree-1 primes",
        "inert in Z[zeta16] and at every higher level",
    ),
    "7mod16": (
        "splits into two degree-1 primes in Z[sqrt2]",
        "each splits again in Z[zeta16+zeta16^7]: four degree-1 primes",
        "inert in Z[zeta16]",
        "inert at every higher level",
    ),
    "1mod16": (
        "splits into two degree-1 primes in Z[sqrt2]",
        "splits completely in Z[zeta16]",
        "behaviour above Z[zeta16] depends on p mod 32; no length formula",
    ),
    "15mod16": (
        "splits into two degree-1 primes in Z[sqrt2]",
        "keeps splitting into degree-2 primes at higher levels; no length formula",
    ),
}

# The class table.  The 3, 5 (mod 8) rows follow Pan et al. (EUROCRYPT
# 2021); the 7, 9 (mod 16) rows go through a_p.  Below its minimum a class
# is refused unless it has a level-1 note, which only classes with minimum
# level 2 have.
COVERAGE = {
    "5mod8": Coverage(1, False),
    "3mod8": Coverage(2, False, "inert: p stays prime in Z[i]; value is for the ideal (p)"),
    "9mod16": Coverage(2, True, "level 1 falls back to the split Z[i] case"),
    "7mod16": Coverage(3, True),
}

# The highest tower level a query accepts: the level-n ring has rank 2^n,
# and each level about doubles the time and memory of the last (lambda1
# --p 89 takes 2.5 s and 262 MB at n = 20; n = 30 cannot finish).
MAX_LEVEL = 20


def require_level(n: int) -> None:
    """DomainError unless 1 <= n <= MAX_LEVEL."""
    if n < 1:
        raise DomainError(f"tower level must be >= 1, got {n}")
    if n > MAX_LEVEL:
        raise DomainError(f"tower level must be <= {MAX_LEVEL}, got {n}")


def class_label(p: int) -> str:
    """Short label of the residue class: '5mod8', '9mod16', ..."""
    m8, m16 = p % 8, p % 16
    if m8 == 5:
        return "5mod8"
    if m8 == 3:
        return "3mod8"
    if m16 == 9:
        return "9mod16"
    if m16 == 7:
        return "7mod16"
    if m16 == 1:
        return "1mod16"
    return "15mod16"


def classify_prime(p: int) -> ResidueClass:
    """Classify an odd prime by its residue mod 8 / mod 16.

    Raises DomainError for p = 2 (ramified everywhere in the tower) and,
    through require_prime, for p < 2 and composite input; this is the one
    primality test of a classifying query.
    """
    if p == 2:
        raise DomainError("p = 2 is ramified in every ring of the tower; unsupported")
    require_prime(p)
    label = class_label(p)
    cov = COVERAGE.get(label, Coverage(None, False))
    return ResidueClass(
        p=p,
        class_mod8=p % 8,
        class_mod16=p % 16,
        supported=label in COVERAGE,
        min_level=cov.min_level,
        splitting=_SPLITTING[label],
        label=label,
        uses_a_p=cov.uses_a_p,
        level1_note=cov.level1_note,
    )
