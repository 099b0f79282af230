"""Fundamental solutions of a^2 - 2b^2 = +p and -p.

(a_p, b_p) denotes the positive solution of a^2 - 2b^2 = p with minimal a;
(a_{-p}, b_{-p}) the same for right-hand side -p.  They satisfy

    a_p < sqrt(2p),   a_p >= 2 b_p,
    a_{-p} = a_p - 2 b_p,   b_{-p} = a_p - b_p.

``pell_from_root`` runs the two-dimensional lattice route: reduce the
Gram matrix of the rows (p, p) and (r + sqrt2, r - sqrt2) with
r^2 = 2 (mod p), read off the shortest vector u + v*sqrt2, and branch on
u^2 - 2v^2 = +-p.  It trusts p and r.  ``solve_pell`` is the validating
entry point: it tests p and takes r from ``sqrt_mod``.  The tower has
tested p once in ``classify_prime`` and calls ``pell_from_root`` with the
root ``class_sqrt`` gives.  ``pell_oracle`` is an independent exhaustive
scan used to cross-verify it.
"""

from __future__ import annotations

from math import isqrt

from ._record import Record, set_field
from .errors import ConsistencyError, DomainError
from .lattice import gauss_reduce_gram
from .ntheory import require_prime, sqrt_mod


class PellSolution(Record):
    """Minimal-a positive solution of a^2 - 2b^2 = sign * p."""

    __slots__ = ("p", "sign", "a", "b")

    def __init__(self, p: int, sign: int, a: int, b: int):
        set_field(self, "p", p)
        set_field(self, "sign", sign)
        set_field(self, "a", a)
        set_field(self, "b", b)
        if a <= 0 or b <= 0:
            raise ConsistencyError(f"non-positive Pell solution {self}")
        if a * a - 2 * b * b != sign * p:
            raise ConsistencyError(f"not a solution: {self}")
        if sign == 1:
            if a * a >= 2 * p:
                raise ConsistencyError(f"a_p >= sqrt(2p) violated: {self}")
            if a < 2 * b:
                raise ConsistencyError(f"a_p >= 2 b_p violated: {self}")


def _validate(p: int, sign: int) -> None:
    if sign not in (1, -1):
        raise DomainError(f"sign must be +1 or -1, got {sign}")
    if p == 2:
        raise DomainError("p = 2 is ramified; a^2 - 2b^2 = +-2 has no prime solution here")
    require_prime(p)
    if p % 8 not in (1, 7):
        raise DomainError(
            f"a^2 - 2b^2 = +-{p} is unsolvable: 2 is a non-residue mod {p}",
            payload={"error": "equation_unsolvable", "class_mod8": str(p % 8)},
        )


def solve_pell(p: int, sign: int = 1) -> PellSolution:
    """Fundamental solution via rank-2 lattice reduction.

    For sign = -1 the solution is derived from the +p one through the
    identities a_{-p} = a_p - 2 b_p and b_{-p} = a_p - b_p.
    """
    _validate(p, sign)
    plus = pell_from_root(p, sqrt_mod(2, p))
    if sign == -1:
        return PellSolution(p, -1, plus.a - 2 * plus.b, plus.a - plus.b)
    return plus


def pell_from_root(p: int, r: int) -> PellSolution:
    """Fundamental solution of a^2 - 2b^2 = +p from a square root r of 2
    mod p, by Gauss reduction of a rank-2 lattice.  Trusts that p is a
    prime = +-1 (mod 8) and that r^2 = 2 (mod p)."""
    gram = (
        (2 * p * p, 2 * p * r),
        (2 * p * r, 2 * r * r + 4),
    )
    _, u_mat = gauss_reduce_gram(gram)
    x, y = u_mat[0]
    u = x * p + y * r
    v = y
    nrm = u * u - 2 * v * v
    if nrm == p:
        a = abs(u)
    elif nrm == -p:
        a = 2 * abs(v) - abs(u)
    else:
        raise ConsistencyError(
            f"reduced vector has norm {nrm}, expected +-{p} (p={p}, r={r})"
        )
    b_sq, rem = divmod(a * a - p, 2)
    b = isqrt(b_sq)
    if rem or b * b != b_sq:
        raise ConsistencyError(f"could not recover b from a={a}, p={p}")
    return PellSolution(p, 1, a, b)


def pell_oracle(p: int, sign: int = 1) -> PellSolution:
    """Fundamental solution by exhaustive scan (independent of solve_pell).

    sign = +1 scans a over (sqrt(p), sqrt(2p)); sign = -1 scans b upward
    testing 2b^2 - p for a perfect square.  The first hit has minimal a
    (for -1, a grows with b), and b is unique given a, so the minimal
    solution is unique.
    """
    _validate(p, sign)
    if sign == 1:
        for a in range(isqrt(p) + 1, isqrt(2 * p - 1) + 1):
            d = a * a - p
            if d % 2:
                continue
            b = isqrt(d // 2)
            if b > 0 and 2 * b * b == d:
                return PellSolution(p, 1, a, b)
        raise ConsistencyError(f"no solution of a^2 - 2b^2 = {p} below sqrt(2p)")
    b_hi = isqrt(2 * p) + 2
    for b in range(isqrt(p // 2), b_hi + 1):
        t = 2 * b * b - p
        if t < 1:
            continue
        a = isqrt(t)
        if a * a == t:
            return PellSolution(p, -1, a, b)
    raise ConsistencyError(f"no solution of a^2 - 2b^2 = -{p} in the scan window")
