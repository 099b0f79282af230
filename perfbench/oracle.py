"""The benchmark's own number theory, independent of cyclosvp.

Everything the benchmark uses to generate inputs or to judge an output
lives here, so a defect in the program cannot hide behind the same
defect in its checker.
"""

from __future__ import annotations

import random
from math import isqrt


def sieve(limit: int) -> list[int]:
    """All primes <= limit."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for q in range(2, isqrt(limit) + 1):
        if flags[q]:
            flags[q * q::q] = bytes(len(range(q * q, limit + 1, q)))
    return [i for i, f in enumerate(flags) if f]


def probable_prime(n: int, rng: random.Random, rounds: int = 24) -> bool:
    """Miller-Rabin with random bases from ``rng``."""
    if n < 4:
        return n in (2, 3)
    if n % 2 == 0:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(rng: random.Random, digits: int, residue: int, modulus: int = 16) -> int:
    """A probable prime with exactly ``digits`` decimal digits, = residue mod modulus."""
    lo, hi = 10 ** (digits - 1), 10 ** digits
    while True:
        x = rng.randrange(lo, hi)
        x += (residue - x) % modulus
        if x < hi and probable_prime(x, rng):
            return x


def pell_scan(p: int) -> tuple[int, int]:
    """(a_p, b_p): the solution of a^2 - 2b^2 = p with the least a > 0,
    by scanning a over (sqrt p, sqrt 2p)."""
    for a in range(isqrt(p) + 1, isqrt(2 * p) + 1):
        d = a * a - p
        if d % 2 == 0:
            b = isqrt(d // 2)
            if b > 0 and 2 * b * b == d:
                return a, b
    raise ValueError(f"no solution of a^2 - 2b^2 = {p} below sqrt(2p)")


def pell_pair_ok(p: int, a: int, b: int, a_minus: int, b_minus: int) -> bool:
    """Both equations, the a_p bounds and the identities tying -p to +p."""
    return (
        a > 0 and b > 0 and a_minus > 0 and b_minus > 0
        and a * a - 2 * b * b == p
        and a_minus * a_minus - 2 * b_minus * b_minus == -p
        and a * a < 2 * p
        and a >= 2 * b
        and a_minus == a - 2 * b
        and b_minus == a - b
    )


def pell_plus_ok(p: int, a: int, b: int) -> bool:
    """The checks that pin down (a_p, b_p) without a scan: a^2 - 2b^2 = p,
    a^2 < 2p and a >= 2b."""
    return a > 0 and b > 0 and a * a - 2 * b * b == p and a * a < 2 * p and a >= 2 * b


def lambda1_formula(p: int, n: int, a_p: int | None) -> int:
    """The paper's squared shortest length for a covered class at level n."""
    if p % 8 in (3, 5):
        return (1 << n) * p
    if p % 16 in (7, 9):
        return (1 << n) * a_p
    raise ValueError(f"p = {p} is in no covered class")


def cyclotomic_name(n: int) -> str:
    return {1: "zi", 2: "zeta8"}.get(n, f"zeta{1 << (n + 1)}")


def witness_sq_length(n: int, coeffs: list[int]) -> int:
    """Squared canonical length in Z[zeta_{2^(n+1)}]: 2^n * sum of c^2."""
    return (1 << n) * sum(c * c for c in coeffs)


def iroot(x: int, k: int) -> int:
    """floor(x ** (1/k)) by integer Newton iteration."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // k)
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


def residue_degree(p: int, n: int) -> int:
    """Residue degree f (1 or 2) of p in Z[zeta_{2^(n+1)}] for the
    fallback classes; p^f = 1 (mod 2^(n+1))."""
    order = 1 << (n + 1)
    if (p - 1) % order == 0:
        return 1
    if (p * p - 1) % order == 0:
        return 2
    raise ValueError(f"residue degree of {p} at level {n} exceeds 2")


def amgm_floor(p: int, n: int) -> int:
    """floor(d * N^(2/d)), d = 2^n, N = p^f: no nonzero element of an
    ideal of norm N is shorter (AM-GM on the embeddings)."""
    d = 1 << n
    norm = p ** residue_degree(p, n)
    return iroot(d ** d * norm * norm, d)


def _gf2_mul(x, y, p, q):
    return ((x[0] * y[0] + q * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)


def _gf2_pow(x, e, p, q):
    acc = (1, 0)
    while e:
        if e & 1:
            acc = _gf2_mul(acc, x, p, q)
        x = _gf2_mul(x, x, p, q)
        e >>= 1
    return acc


def in_prime_above(p: int, n: int, coeffs: list[int]) -> bool:
    """True when the element sum c_j zeta^j vanishes at some root of
    x^(2^n) + 1 in GF(p) or GF(p^2), i.e. lies in a prime ideal over p
    of residue degree <= 2."""
    d = 1 << n
    f = residue_degree(p, n)
    q = 1
    if f == 2:  # GF(p^2) = GF(p)[s] / (s^2 - q), q a non-residue
        q = 2
        while pow(q, (p - 1) // 2, p) != p - 1:
            q += 1
    size = p ** f - 1
    g = 1
    while True:  # an element of exact order 2d
        g += 1
        root = _gf2_pow((g % p, 1 if f == 2 else 0), size // (2 * d), p, q)
        if _gf2_pow(root, d, p, q) == (p - 1, 0):
            break
    square = _gf2_mul(root, root, p, q)
    beta = root
    for _ in range(d):  # the roots of x^d + 1 are root^(odd)
        acc, power = (0, 0), (1, 0)
        for c in coeffs:
            if c:
                acc = ((acc[0] + c * power[0]) % p, (acc[1] + c * power[1]) % p)
            power = _gf2_mul(power, beta, p, q)
        if acc == (0, 0):
            return True
        beta = _gf2_mul(beta, square, p, q)
    return False
