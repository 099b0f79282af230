"""The four seeded workloads.

An operation is one query: one (p, n) certification, or one
``solve_pell(p, +1)`` / ``solve_pell(p, -1)`` pair.  Each workload hands
out its operations in *rounds*.  A round holds a fixed number of draws
from each stratum of the workload's population, so every round costs
about the same and a run's figures do not hinge on which few expensive
inputs a seed happened to pick.  Draws within a stratum come from a
seeded permutation that is reshuffled when used up (sampling without
replacement).  The seed chooses the inputs and their order; the program
receives only the generated inputs.

``call`` is the timed part of an operation and goes through module
attributes, so wrappers installed by the tracer see it.  ``check`` runs
outside the timed region and returns an error message, or None when the
output is right.
"""

from __future__ import annotations

import io
import json
import random
from pathlib import Path

import oracle
from cyclosvp import cli, idealsvp, pell

# Level range per covered class, from the class table in the paper.
COVERED_LEVELS = {"5mod8": 1, "3mod8": 2, "9mod16": 2, "7mod16": 3}
FALLBACK_REFERENCE = Path(__file__).with_name("fallback_reference.json")


def class_label(p: int) -> str:
    if p % 8 in (3, 5):
        return f"{p % 8}mod8"
    return f"{p % 16}mod16"


class Deck:
    """Seeded sampling without replacement, reshuffled when exhausted."""

    def __init__(self, items, rng: random.Random):
        self.items = list(items)
        self.rng = rng
        self.pos = len(self.items)

    def draw(self) -> object:
        if self.pos == len(self.items):
            self.rng.shuffle(self.items)
            self.pos = 0
        self.pos += 1
        return self.items[self.pos - 1]


def _cli_lambda1(p: int, n: int) -> tuple[int, str]:
    out = io.StringIO()
    code = cli.run(["lambda1", "--p", str(p), "--n", str(n)], out=out)
    return code, out.getvalue()


def _check_lambda1_json(p: int, n: int, result, a_p_from_scan: int | None) -> str | None:
    """Checks shared by ``tower`` and ``large_p``.  With a_p_from_scan None
    (large p) the reported (a_p, b_p) is checked by its defining
    properties instead of by a scan."""
    code, text = result
    if code != 0:
        return f"exit code {code}: {text.strip()[:200]}"
    data = json.loads(text)
    if data["p"] != str(p) or data["n"] != str(n):
        return f"answered ({data['p']}, {data['n']})"
    if data["certified"] is not True:
        return "certified is not true at rank <= 16"
    witness = data["witness"]
    coeffs = [int(c) for c in witness["coeffs"]]
    if witness["ring"] != oracle.cyclotomic_name(n) or len(coeffs) != 1 << n:
        return f"witness lives in {witness['ring']} with {len(coeffs)} coefficients"
    lam = int(data["lambda1_squared"])
    if not any(coeffs) or oracle.witness_sq_length(n, coeffs) != lam:
        return f"witness length {oracle.witness_sq_length(n, coeffs)} != lambda1^2 {lam}"
    a_p = None
    if p % 16 in (7, 9):
        a_p, b_p = int(data["a_p"]), int(data["b_p"])
        if a_p_from_scan is not None and a_p != a_p_from_scan:
            return f"a_p {a_p} != scanned {a_p_from_scan}"
        if not oracle.pell_plus_ok(p, a_p, b_p):
            return f"(a_p, b_p) = ({a_p}, {b_p}) fails a^2 - 2b^2 = p, a^2 < 2p, a >= 2b"
    if lam != oracle.lambda1_formula(p, n, a_p):
        return f"lambda1^2 {lam} != formula {oracle.lambda1_formula(p, n, a_p)}"
    return None


class Tower:
    name = "tower"
    TAIL_PERCENTILE = 95
    why = ("the paper's main use: covered primes below 300 at every admissible level "
           "n <= 4 through the CLI; LLL and enumeration carry the time")
    PMAX = 300

    def __init__(self, seed: int):
        rng = random.Random(seed)
        primes = [p for p in oracle.sieve(self.PMAX) if p > 2]
        self.decks = {label: Deck([p for p in primes if class_label(p) == label], rng)
                      for label in COVERED_LEVELS}
        self.rng = rng
        self._a_p: dict[int, int] = {}

    @staticmethod
    def _levels(p: int):
        return range(COVERED_LEVELS[class_label(p)], 5)

    def next_round(self) -> list:
        """One prime per covered class, at each of its levels: 12 operations."""
        ops = [(p, n) for deck in self.decks.values() for p in [deck.draw()]
               for n in self._levels(p)]
        self.rng.shuffle(ops)
        return ops

    def warmup(self) -> list:
        return [(p, n) for p in (5, 3, 41, 7) for n in self._levels(p)]

    call = staticmethod(lambda op: _cli_lambda1(*op))

    def check(self, op, result) -> str | None:
        p, n = op
        a_p = None
        if p % 16 in (7, 9):
            if p not in self._a_p:
                self._a_p[p] = oracle.pell_scan(p)[0]
            a_p = self._a_p[p]
        return _check_lambda1_json(p, n, result, a_p)


class LargeP:
    name = "large_p"
    TAIL_PERCENTILE = 75
    why = ("the tower's layers in the bignum regime: covered primes of 54 to 200 digits "
           "at n = 2..4, where a change can trade small p against large p")
    # Digit counts of each round's primes, the same ladder for every class.
    # With every round holding the same sizes, residues and levels, the
    # seed chooses only the primes and their order, and the round's costs
    # spread evenly instead of clustering: random sizes moved the median
    # latency by a fifth from seed to seed while the throughput stayed put.
    DIGITS = (54, 83, 112, 142, 171, 200)
    # Residues mod 16 of each covered class, alternated along the ladder.
    RESIDUES = {"5mod8": (5, 13), "3mod8": (3, 11), "9mod16": (9,), "7mod16": (7,)}

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def _ops_for(self, digits, rng: random.Random) -> list:
        ops = []
        for label, residues in self.RESIDUES.items():
            for i, d in enumerate(digits):
                p = oracle.random_prime(rng, d, residues[i % len(residues)])
                ops.extend((p, n) for n in range(max(2, COVERED_LEVELS[label]), 5))
        return ops

    def next_round(self) -> list:
        """One prime of each size on the ladder per covered class, at each
        of its levels in 2..4: 66 operations, 23-28 s.  A round lasts
        longer than a default run, so every run is exactly one round on a
        faster or slower machine alike (see run.run_rounds)."""
        ops = self._ops_for(self.DIGITS, self.rng)
        self.rng.shuffle(ops)
        return ops

    def warmup(self) -> list:
        return self._ops_for(self.DIGITS[:1], random.Random(0))

    call = staticmethod(lambda op: _cli_lambda1(*op))

    def check(self, op, result) -> str | None:
        return _check_lambda1_json(op[0], op[1], result, None)


class Pell:
    name = "pell"
    # Not p99: in a run where a shared host stalls the process for a few
    # milliseconds at a time, the stalls hit more than 1% of these
    # sub-millisecond calls, and p99 read 3.4-5.0 ms instead of 1.3 ms in
    # three of ten runs.  p95 lies in the same class (p = 1 mod 8, whose
    # square roots take Tonelli-Shanks) and is not moved by them.
    TAIL_PERCENTILE = 95
    why = ("primes p = +-1 (mod 8) below 10^6 through solve_pell(p, +-1): the "
           "validation path and number theory, with no LLL or enumeration")
    PMAX = 10 ** 6
    ROUND = 256
    ORACLE_SHARE = 0.02  # share of operations also checked by a full scan

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.deck = Deck([p for p in oracle.sieve(self.PMAX) if p % 8 in (1, 7)], rng)
        self.sample_rng = random.Random(f"{seed}/oracle-sample")

    def next_round(self) -> list:
        return [self.deck.draw() for _ in range(self.ROUND)]

    def warmup(self) -> list:
        return [p for p in oracle.sieve(2000) if p % 8 in (1, 7)]

    @staticmethod
    def call(p: int):
        plus = pell.solve_pell(p, 1)
        minus = pell.solve_pell(p, -1)
        return plus.a, plus.b, minus.a, minus.b

    def check(self, p: int, result) -> str | None:
        a, b, a_minus, b_minus = result
        if not oracle.pell_pair_ok(p, a, b, a_minus, b_minus):
            return f"p={p}: ({a}, {b}), ({a_minus}, {b_minus}) fail the Pell checks"
        if self.sample_rng.random() < self.ORACLE_SHARE and (a, b) != oracle.pell_scan(p):
            return f"p={p}: ({a}, {b}) != scanned {oracle.pell_scan(p)}"
        return None


class Fallback:
    name = "fallback"
    TAIL_PERCENTILE = 80
    why = ("p = 1, 15 (mod 16) below 1000 by certified enumeration at n = 3, 4, "
           "including the inputs whose first radius is exhausted; enumeration dominates")
    # Per round: the four rank-16 inputs whose minimum exceeds twice the
    # AM-GM floor (the radius the enumeration starts from, so it must
    # retry), the 34 other rank-16 inputs twice and the 38 rank-8 inputs
    # three times.  Every round thus holds the whole population in the same
    # proportions whatever the seed, which only sets the order, and a
    # one-round run never over- or under-samples the exhausted inputs,
    # which take 75% of the time.  The proportions place each latency
    # statistic inside a dense group rather than on a gap or in a sparse
    # tail, where a few milliseconds of noise move it by a quarter: the
    # median at about the 80th percentile of the rank-8 group (10-22 ms),
    # the p80 tail at the middle of the rank-16 group (46-130 ms).
    PER_ROUND = {"rank16_exhausted": 4, "rank16": 68, "rank8": 114}

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.reference = {tuple(map(int, key.split(","))): lam for key, lam in
                          json.loads(FALLBACK_REFERENCE.read_text()).items()}
        strata = {key: [] for key in self.PER_ROUND}
        for (p, n), lam in sorted(self.reference.items()):
            if n == 3:
                strata["rank8"].append((p, n))
            elif lam > 2 * oracle.amgm_floor(p, n):
                strata["rank16_exhausted"].append((p, n))
            else:
                strata["rank16"].append((p, n))
        self.decks = {key: Deck(items, rng) for key, items in strata.items()}
        self.rng = rng

    def next_round(self) -> list:
        ops = [self.decks[key].draw() for key, k in self.PER_ROUND.items() for _ in range(k)]
        self.rng.shuffle(ops)
        return ops

    def warmup(self) -> list:
        return [(17, 3), (17, 4), (47, 4)]

    @staticmethod
    def call(op):
        res = idealsvp.lambda1_squared(op[0], op[1], enumerate_fallback=True)
        vec = res.witness.vector
        return res.lambda1_sq, res.witness.sq_length, vec.ring.name, vec.coeffs

    def check(self, op, result) -> str | None:
        p, n = op
        lam, witness_sq, ring, coeffs = result
        coeffs = [int(c) for c in coeffs]
        if ring != oracle.cyclotomic_name(n) or len(coeffs) != 1 << n:
            return f"witness lives in {ring} with {len(coeffs)} coefficients"
        if not any(coeffs) or oracle.witness_sq_length(n, coeffs) != lam or witness_sq != lam:
            return f"witness length {oracle.witness_sq_length(n, coeffs)} != lambda1^2 {lam}"
        if lam < oracle.amgm_floor(p, n):
            return f"lambda1^2 {lam} is below the AM-GM floor {oracle.amgm_floor(p, n)}"
        if not oracle.in_prime_above(p, n, coeffs):
            return "witness lies in no prime ideal over p"
        if lam != self.reference[op]:
            return f"lambda1^2 {lam} != reference {self.reference[op]}"
        return None


WORKLOADS = {cls.name: cls for cls in (Tower, Pell, Fallback, LargeP)}


class Mix:
    """The (p, n) mix a run produced: operation counts per class and level,
    and the smallest and largest p (by digits above 10^6)."""

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.p_min = self.p_max = None

    def add(self, op) -> None:
        p, n = op if isinstance(op, tuple) else (op, None)
        key = f"{p % 8}mod8" if n is None else f"{class_label(p)},n={n}"
        self.counts[key] = self.counts.get(key, 0) + 1
        self.p_min = p if self.p_min is None else min(self.p_min, p)
        self.p_max = p if self.p_max is None else max(self.p_max, p)

    def summary(self) -> dict:
        def show(p):
            return str(p) if p < 10 ** 6 else f"{len(str(p))} digits"
        return {"operations": sum(self.counts.values()),
                "p_min": show(self.p_min), "p_max": show(self.p_max),
                "by_class_and_level": dict(sorted(self.counts.items()))}
