"""Command-line surface: single queries, batch tables, verification runs.

Commands: classify, pell, sqrtmod, lambda1, shortest, bounds, verify,
table.  Output is machine readable (JSON objects; CSV or JSON for tables,
the one command with --format); every numeric JSON value is a decimal
string so arbitrary precision survives any consumer.  Exit codes: 0 success, 2 domain error (composite
p, uncovered class, ...) with a one-line error object, 1 internal
consistency failure (formula/enumeration mismatch; never masked).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from .errors import ConsistencyError, DomainError, RadiusExhausted
from .idealsvp import (
    SVSG_RINGS,
    bounds,
    fourth_root_decimal,
    lambda1_squared,
    result_to_json,
    shortest_vector,
    sqrt_decimal,
    svsg_verify,
    zeta16_lift_check,
)
from .lattice import SvpCertificate
from .ntheory import (
    COVERAGE,
    class_label,
    classify_prime,
    is_probable_only,
    require_level,
    sieve_primes,
    sqrt_mod,
)
from .pell import solve_pell
from .rings import element_to_json, ring_by_name

_TABLE_COLUMNS = ("p", "class", "a_p", "lambda1_sq", "bound_new", "bound_minkowski", "certified")


def _cert_json(cert: SvpCertificate) -> dict:
    return {
        "witness": element_to_json(cert.vector),
        "sq_length": str(cert.sq_length),
        "length_decimal": sqrt_decimal(cert.sq_length),
        "method": cert.method,
        "certified": cert.cross_checked,
    }


# each command's library call is its one primality test: classify_prime
# for classify, lambda1, shortest and bounds, and require_prime inside
# solve_pell and sqrt_mod for pell and sqrtmod


def _cmd_classify(args) -> dict:
    p = args.p
    rc = classify_prime(p)  # refuses p < 2 and composites as not_prime
    if not rc.supported:
        raise DomainError(
            f"class of {p} not covered",
            payload={"error": "class_not_covered", "class_mod16": str(rc.class_mod16)},
        )
    return {
        "p": str(p),
        "class_mod8": str(rc.class_mod8),
        "class_mod16": str(rc.class_mod16),
        "class": rc.label,
        "supported": rc.supported,
        "min_level": str(rc.min_level),
        "splitting": list(rc.splitting),
        "probable_prime_only": is_probable_only(p),
    }


def _cmd_pell(args) -> dict:
    sol = solve_pell(args.p, args.sign)
    return {"a_p" if args.sign == 1 else "a_-p": str(sol.a),
            "b_p" if args.sign == 1 else "b_-p": str(sol.b)}


def _cmd_sqrtmod(args) -> dict:
    r = sqrt_mod(args.a, args.p)
    out = {"a": str(args.a), "p": str(args.p)}
    if r is None:
        out["root"] = None
        out["nonresidue"] = True
    else:
        out["root"] = str(r)
    return out


def _cmd_lambda1(args) -> dict:
    res = lambda1_squared(args.p, args.n, enumerate_fallback=args.enumerate_fallback)
    return result_to_json(res)


def _cmd_shortest(args) -> dict:
    return _cert_json(shortest_vector(args.p, args.n))


def _cmd_bounds(args) -> dict:
    b = bounds(args.p, args.n)
    return {
        "p": str(b.p),
        "n": str(b.n),
        "lambda1_squared": str(b.lambda1_sq),
        "lambda1_decimal": b.lambda1_decimal,
        "new_bound_radicand": str(b.new_bound_radicand),
        "bound_new_decimal": b.bound_new_decimal,
        "minkowski_radicand": str(b.minkowski_radicand),
        "bound_minkowski_decimal": b.bound_minkowski_decimal,
    }


def _json_field(value):
    """A record field as JSON: integers as decimal strings, the rest as is."""
    return str(value) if type(value) is int else value


def _cmd_verify(args) -> dict:
    rings = (
        [ring_by_name(args.ring)] if args.ring else list(SVSG_RINGS)
    )
    reports = []
    failed = False
    for ring in rings:
        rep = svsg_verify(ring, args.norm_bound)
        reports.append(
            {
                "ring": rep.ring,
                "norm_bound": str(rep.norm_bound),
                "ideals": str(len(rep.entries)),
                "mismatches": [{f: _json_field(getattr(e, f)) for f in e.__slots__}
                               for e in rep.mismatches],
                "passed": rep.passed,
            }
        )
        failed = failed or not rep.passed
    lift_checks = []
    if args.ring in (None, "theta16"):
        for p in (x for x in sieve_primes(min(args.norm_bound, 500)) if x % 16 == 7):
            rep = zeta16_lift_check(p)
            lift_checks.append(
                {
                    "p": str(rep.p),
                    "subfield_sq": str(rep.subfield_sq),
                    "extension_sq": str(rep.extension_sq),
                    "passed": rep.passed,
                }
            )
            failed = failed or not rep.passed
    if failed:
        raise ConsistencyError(
            json.dumps({"error": "verification_failed", "reports": reports,
                        "zeta16_lift_checks": lift_checks})
        )
    return {"reports": reports, "zeta16_lift_checks": lift_checks, "passed": True}


def table_row(p: int, n: int) -> dict:
    """One bound-comparison row; a_p and the tight bound apply to the
    p = 7, 9 (mod 16) classes only and are empty otherwise."""
    res = lambda1_squared(p, n)
    rc = res.residue_class
    row = {
        "p": str(p),
        "class": rc.label,
        "a_p": "",
        "lambda1_sq": str(res.lambda1_sq),
        "bound_new": "",
        "bound_minkowski": "",
        "certified": "true" if res.witness.cross_checked else "false",
    }
    if rc.uses_a_p:
        row["a_p"] = str(res.pell.a)
        row["bound_new"] = fourth_root_decimal(res.bound_new_radicand)
        row["bound_minkowski"] = fourth_root_decimal(res.bound_minkowski_radicand)
    return row


def emit_table(pmax: int, classes: set[str], n: int) -> list[dict]:
    """Rows for every covered prime <= pmax whose class is requested and
    admits level n, ordered by p."""
    if pmax < 3:
        raise DomainError("--pmax must be at least 3")
    require_level(n)
    rows = []
    for p in sieve_primes(pmax)[1:]:  # odd primes
        label = class_label(p)
        if label in classes and label in COVERAGE and n >= COVERAGE[label].min_level:
            rows.append(table_row(p, n))
    return rows


def _cmd_table(args) -> list[dict]:
    classes = {c.strip() for c in args.classes.split(",") if c.strip()}
    unknown = classes - set(COVERAGE)
    if unknown:
        raise DomainError(f"unknown class labels: {sorted(unknown)}")
    return emit_table(args.pmax, classes, args.n)


def _print_table(rows: list[dict], fmt: str, out) -> None:
    if fmt == "json":
        out.write(json.dumps(rows) + "\n")
        return
    out.write(",".join(_TABLE_COLUMNS) + "\n")
    for row in rows:
        out.write(",".join(row[c] for c in _TABLE_COLUMNS) + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cyclosvp",
        description=(
            "Exact shortest vectors of prime-ideal lattices in power-of-two "
            "cyclotomic rings and their quadratic/quartic subrings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, p=False, n=False):
        if p:
            sp.add_argument("--p", type=int, required=True, help="rational prime")
        if n:
            sp.add_argument("--n", type=int, default=2,
                            help="tower level: ring Z[zeta_{2^(n+1)}], rank 2^n")

    sp = sub.add_parser("classify", help="residue class and splitting tower")
    common(sp, p=True)
    sp = sub.add_parser("pell", help="fundamental solution of a^2-2b^2 = +-p")
    common(sp, p=True)
    sp.add_argument("--sign", type=int, choices=(1, -1), default=1)
    sp = sub.add_parser("sqrtmod", help="canonical square root of a mod p")
    common(sp, p=True)
    sp.add_argument("--a", type=int, default=2, help="residue (default 2)")
    sp = sub.add_parser("lambda1", help="shortest length with witness")
    common(sp, p=True, n=True)
    sp.add_argument("--enumerate-fallback", action="store_true",
                    help="enumerate when the class has no formula (rank <= 16)")
    sp = sub.add_parser("shortest", help="shortest-vector witness only")
    common(sp, p=True, n=True)
    sp = sub.add_parser("bounds", help="lambda1 vs the two upper bounds")
    common(sp, p=True, n=True)
    sp = sub.add_parser("verify", help="shortest-generator == shortest-vector suite")
    sp.add_argument("--ring", choices=[r.name for r in SVSG_RINGS], default=None)
    sp.add_argument("--norm-bound", type=int, default=100)
    sp = sub.add_parser("table", help="bound-comparison table over covered primes")
    sp.add_argument("--pmax", type=int, required=True)
    sp.add_argument("--n", type=int, default=2)
    sp.add_argument("--classes", default=",".join(COVERAGE),
                    help=f"comma list from {{{','.join(COVERAGE)}}}")
    sp.add_argument("--format", choices=("json", "csv"), default="csv")
    return parser


_DISPATCH = {
    "classify": _cmd_classify,
    "pell": _cmd_pell,
    "sqrtmod": _cmd_sqrtmod,
    "lambda1": _cmd_lambda1,
    "shortest": _cmd_shortest,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
}


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first run and reused for the process."""
    return build_parser()


def run(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = _parser().parse_args(argv)
    try:
        if args.command == "table":
            _print_table(_cmd_table(args), args.format, out)
        else:
            payload = _DISPATCH[args.command](args)
            out.write(json.dumps(payload) + "\n")
    except DomainError as exc:
        payload = exc.payload or {"error": str(exc)}
        if "error" not in payload:
            payload["error"] = str(exc)
        out.write(json.dumps(payload) + "\n")
        return 2
    except (ConsistencyError, RadiusExhausted) as exc:
        out.write(json.dumps({"error": "internal_consistency", "detail": str(exc)}) + "\n")
        return 1
    except Exception as exc:  # exhaustive exit-code contract: anything else is a 1
        out.write(json.dumps({"error": "internal", "detail": repr(exc)}) + "\n")
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
