"""The frozen result records: construction, repr, equality, hash,
immutability, pickling, and an import that stays light.

The reprs and the verify line below were recorded from the frozen
dataclasses these records replace; the records must reproduce them byte
for byte, since reprs reach error text.
"""

import copy
import inspect
import io
import os
import pickle
import subprocess
import sys

import pytest

from cyclosvp import cli
from cyclosvp.errors import ConsistencyError, DomainError
from cyclosvp.idealsvp import SvsgEntry, SvsgReport, bounds, lambda1_squared, zeta16_lift_check
from cyclosvp.lattice import IntegerLattice, SvpCertificate, lll_reduce, prime_ideal_lattice
from cyclosvp.ntheory import classify_prime
from cyclosvp.pell import PellSolution
from cyclosvp.rings import CYCLO_EIGHTH, GAUSSIAN_INT, RingElement

RESIDUE_89 = (
    "ResidueClass(p=89, class_mod8=1, class_mod16=9, supported=True, min_level=2, "
    "splitting=('splits into two degree-1 primes in Z[sqrt2]', 'each splits again "
    "in Z[zeta8]: four degree-1 primes', 'inert in Z[zeta16] and at every higher "
    "level'), label='9mod16', uses_a_p=True, level1_note='level 1 falls back to the "
    "split Z[i] case')"
)
LATTICE_17 = (
    "IntegerLattice(ring=Ring(zeta8), basis=(zeta8[-2, 1, 0, 0], zeta8[0, -2, 1, 0], "
    "zeta8[0, 0, -2, 1], zeta8[1, 0, 0, 2]), gram=((20, -8, 0, -8), (-8, 20, -8, 0), "
    "(0, -8, 20, 8), (-8, 0, 8, 20)), ideal_meta=(17, 2), transform=((-1, 1, 0, 0), "
    "(1, -2, 1, 0), (1, 0, -2, 1), (-1, 0, 0, 2)))"
)
ENTRY = SvsgEntry(13, 13, "(13, th - 5)", 26, 28, False, "x")
ENTRY_REPR = ("SvsgEntry(p=13, norm=13, ideal='(13, th - 5)', lambda1_sq=26, "
              "generator_sq=28, match=False, detail='x')")

# record, its constructor's fields in order, the defaults, the dataclass repr
CASES = {
    "RingElement": (
        lambda: RingElement(GAUSSIAN_INT, (5, 2)),
        ("ring", "coeffs"), {}, "zi[5, 2]"),
    "IntegerLattice": (
        lambda: lll_reduce(prime_ideal_lattice(CYCLO_EIGHTH, 17, 2)),
        ("ring", "basis", "gram", "ideal_meta", "transform", "gso"),
        {"ideal_meta": None, "transform": None, "gso": None}, LATTICE_17),
    "SvpCertificate": (
        lambda: SvpCertificate(RingElement(GAUSSIAN_INT, (5, 2)), 29, "enumeration", True),
        ("vector", "sq_length", "method", "cross_checked"), {},
        "SvpCertificate(vector=zi[5, 2], sq_length=29, method='enumeration', "
        "cross_checked=True)"),
    "ResidueClass": (
        lambda: classify_prime(89),
        ("p", "class_mod8", "class_mod16", "supported", "min_level", "splitting",
         "label", "uses_a_p", "level1_note"), {}, RESIDUE_89),
    "PellSolution": (
        lambda: PellSolution(89, 1, 11, 4),
        ("p", "sign", "a", "b"), {}, "PellSolution(p=89, sign=1, a=11, b=4)"),
    "SvsgEntry": (
        lambda: ENTRY,
        ("p", "norm", "ideal", "lambda1_sq", "generator_sq", "match", "detail"),
        {"detail": ""}, ENTRY_REPR),
    "SvsgReport": (
        lambda: SvsgReport("zi", 20, (ENTRY,)),
        ("ring", "norm_bound", "entries"), {},
        f"SvsgReport(ring='zi', norm_bound=20, entries=({ENTRY_REPR},))"),
    "Lambda1Result": (
        lambda: lambda1_squared(89, 2),
        ("p", "n", "residue_class", "lambda1_sq", "witness", "bound_new_radicand",
         "bound_minkowski_radicand", "note", "pell"),
        {"note": None, "pell": None},
        f"Lambda1Result(p=89, n=2, residue_class={RESIDUE_89}, lambda1_sq=44, "
        "witness=SvpCertificate(vector=zeta8[0, 1, 1, 3], sq_length=44, "
        "method='enumeration', cross_checked=True), bound_new_radicand=2848, "
        "bound_minkowski_radicand=22784, note=None, "
        "pell=PellSolution(p=89, sign=1, a=11, b=4))"),
    "BoundsResult": (
        lambda: bounds(89, 2),
        ("p", "n", "lambda1_sq", "new_bound_radicand", "minkowski_radicand",
         "lambda1_decimal", "bound_new_decimal", "bound_minkowski_decimal"), {},
        "BoundsResult(p=89, n=2, lambda1_sq=44, new_bound_radicand=2848, "
        "minkowski_radicand=22784, lambda1_decimal='6.63324958071', "
        "bound_new_decimal='7.30524854173', bound_minkowski_decimal='12.2859146226')"),
    "LiftCheckReport": (
        lambda: zeta16_lift_check(7),
        ("p", "subfield_sq", "extension_sq", "four_a_p", "ratio_exact",
         "witness_attains"), {},
        "LiftCheckReport(p=7, subfield_sq=12, extension_sq=24, four_a_p=12, "
        "ratio_exact=True, witness_attains=True)"),
}


def compared(fields):
    return tuple(f for f in fields if f != "gso")


@pytest.fixture(params=sorted(CASES))
def case(request):
    make, fields, defaults, text = CASES[request.param]
    return make(), fields, defaults, text


def test_repr_is_the_dataclass_repr(case):
    rec, _, _, text = case
    assert repr(rec) == text


def test_constructor_takes_the_fields_in_order_by_position_and_keyword(case):
    rec, fields, defaults, _ = case
    params = inspect.signature(type(rec)).parameters
    assert tuple(params) == fields
    assert {k: p.default for k, p in params.items() if p.default is not p.empty} == defaults
    values = [getattr(rec, f) for f in fields]
    by_keyword = type(rec)(**dict(zip(fields, values)))
    assert type(rec)(*values) == by_keyword == rec
    assert repr(by_keyword) == repr(rec)


@pytest.mark.parametrize("name", sorted(n for n in CASES if CASES[n][2]))
def test_defaults_fill_the_trailing_fields(name):
    make, fields, defaults, _ = CASES[name]
    rec = make()
    given = {f: getattr(rec, f) for f in fields if f not in defaults}
    bare = type(rec)(**given)
    assert {f: getattr(bare, f) for f in defaults} == defaults


def test_equality_and_hash_are_those_of_the_compared_fields(case):
    rec, fields, _, _ = case
    values = tuple(getattr(rec, f) for f in compared(fields))
    assert hash(rec) == hash(values)
    assert rec.__eq__(values) is NotImplemented and rec != values
    assert rec.__eq__(object()) is NotImplemented


def test_fields_cannot_be_assigned_or_deleted(case):
    rec, fields, _, _ = case
    for f in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{f}'"):
            setattr(rec, f, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{f}'"):
            delattr(rec, f)
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_pickle_and_copy_round_trip(case):
    rec, fields, _, _ = case
    for again in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec)):
        assert type(again) is type(rec) and again == rec and hash(again) == hash(rec)
        assert repr(again) == repr(rec)
        assert all(getattr(again, f) == getattr(rec, f) for f in fields)


def test_gso_stays_out_of_equality_hash_and_repr():
    reduced = CASES["IntegerLattice"][0]()
    assert reduced.gso is not None
    bare = IntegerLattice(reduced.ring, reduced.basis, reduced.gram,
                          reduced.ideal_meta, reduced.transform)
    assert bare == reduced and hash(bare) == hash(reduced) and repr(bare) == repr(reduced)
    assert bare != IntegerLattice(reduced.ring, reduced.basis, reduced.gram)


def test_records_differing_in_one_field_are_unequal():
    assert PellSolution(89, 1, 11, 4) != PellSolution(89, -1, 3, 7)
    assert ENTRY != SvsgEntry(13, 13, "(13, th - 5)", 26, 28, False)
    assert RingElement(GAUSSIAN_INT, (5, 2)) != RingElement(GAUSSIAN_INT, (5, -2))
    assert RingElement(GAUSSIAN_INT, (1, 0)) != RingElement(CYCLO_EIGHTH, (1, 0, 0, 0))


def test_construction_still_validates():
    with pytest.raises(DomainError, match=r"^zi needs 2 coefficients, got 3$"):
        RingElement(GAUSSIAN_INT, (1, 2, 3))
    with pytest.raises(ConsistencyError) as exc:
        PellSolution(89, 1, 11, 5)
    assert str(exc.value) == "not a solution: PellSolution(p=89, sign=1, a=11, b=5)"
    with pytest.raises(ConsistencyError) as exc:
        PellSolution(p=89, sign=1, a=-11, b=4)
    assert str(exc.value) == ("non-positive Pell solution "
                              "PellSolution(p=89, sign=1, a=-11, b=4)")


def test_verify_prints_a_mismatch_as_its_fields(monkeypatch):
    monkeypatch.setattr(cli, "svsg_verify",
                        lambda ring, bound: SvsgReport(ring.name, bound, (ENTRY,)))
    out = io.StringIO()
    assert cli.run(["verify", "--ring", "zi", "--norm-bound", "20"], out=out) == 1
    assert out.getvalue() == (
        '{"error": "internal_consistency", "detail": "{\\"error\\": '
        '\\"verification_failed\\", \\"reports\\": [{\\"ring\\": \\"zi\\", '
        '\\"norm_bound\\": \\"20\\", \\"ideals\\": \\"1\\", \\"mismatches\\": '
        '[{\\"p\\": 13, \\"norm\\": 13, \\"ideal\\": \\"(13, th - 5)\\", '
        '\\"lambda1_sq\\": 26, \\"generator_sq\\": 28, \\"match\\": false, '
        '\\"detail\\": \\"x\\"}], \\"passed\\": false}]}"}\n'
    )


def test_import_loads_neither_dataclasses_nor_inspect():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import cyclosvp, cyclosvp.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    # -S: modules that the host's site and .pth files load are not the package's.
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"
