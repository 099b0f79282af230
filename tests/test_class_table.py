"""The class table end to end: which (p, n) the CLI answers, the exact
bytes of its refusals and level-1 answers, how often one query
classifies p and solves the Pell equation, and exit codes at p ~ 10^400.
"""

import io
import json
import sys

import pytest

from cyclosvp import cli, idealsvp, ntheory, pell
from cyclosvp.ntheory import classify_prime, sieve_primes


def run_cli(*argv):
    out = io.StringIO()
    code = cli.run([str(a) for a in argv], out=out)
    return code, out.getvalue()


# ---------------------------------------------------------------------------
# which levels each class is answered at


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_table_lists_exactly_the_pairs_at_or_above_the_class_minimum(n):
    code, text = run_cli("table", "--pmax", 300, "--n", n)
    assert code == 0
    listed = [int(line.split(",")[0]) for line in text.strip().split("\n")[1:]]
    expected = []
    for p in sieve_primes(300)[1:]:
        rc = classify_prime(p)
        if rc.supported and rc.min_level <= n:
            expected.append(p)
    assert listed == expected


@pytest.mark.parametrize(
    "argv, code, stdout",
    [
        (
            ("lambda1", "--p", 7, "--n", 2),
            2,
            '{"error": "p = 7 (mod 16) needs level n >= 3 (zeta_16 must embed), got 2"}\n',
        ),
        (
            ("shortest", "--p", 7, "--n", 2),
            2,
            '{"error": "p = 7 (mod 16) needs level n >= 3 (zeta_16 must embed), got 2"}\n',
        ),
        (
            ("bounds", "--p", 89, "--n", 1),
            2,
            '{"error": "class 9mod16 needs level n >= 2, got 1"}\n',
        ),
        (
            ("bounds", "--p", 13, "--n", 3),
            2,
            '{"error": "class_not_covered", "class_mod16": "13"}\n',
        ),
        (
            ("lambda1", "--p", 89, "--n", 0),
            2,
            '{"error": "tower level must be >= 1, got 0"}\n',
        ),
    ],
)
def test_refusals_are_byte_exact(argv, code, stdout):
    assert run_cli(*argv) == (code, stdout)


def test_level1_answer_for_3mod8_is_the_inert_ideal():
    code, text = run_cli("lambda1", "--p", 11, "--n", 1)
    assert code == 0
    assert text == (
        '{"p": "11", "n": "1", "class_mod16": "11", "a_p": null, "b_p": null, '
        '"lambda1_squared": "242", "lambda1_decimal": "15.5563491861", '
        '"bound_new_decimal": null, "bound_minkowski_decimal": null, '
        '"witness": {"ring": "zi", "coeffs": ["0", "11"]}, '
        '"method": "analytic-formula", "certified": true, '
        '"note": "inert: p stays prime in Z[i]; value is for the ideal (p)"}\n'
    )


def test_level1_answer_for_9mod16_is_the_split_gaussian_case():
    code, text = run_cli("lambda1", "--p", 41, "--n", 1)
    assert code == 0
    assert text == (
        '{"p": "41", "n": "1", "class_mod16": "9", "a_p": "7", "b_p": "2", '
        '"lambda1_squared": "82", "lambda1_decimal": "9.05538513814", '
        '"bound_new_decimal": null, "bound_minkowski_decimal": null, '
        '"witness": {"ring": "zi", "coeffs": ["4", "-5"]}, '
        '"method": "analytic-formula", "certified": true, '
        '"note": "level 1 falls back to the split Z[i] case"}\n'
    )


def test_format_is_rejected_off_table():
    with pytest.raises(SystemExit) as exc:
        run_cli("shortest", "--p", 13, "--n", 3, "--format", "csv")
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# one classification and one Pell solve per query


@pytest.fixture
def calls(monkeypatch):
    """Count calls of classify_prime and of Pell solves through every
    cyclosvp namespace that binds them.  Every solve, by solve_pell or by
    the tower, runs through pell.pell_from_root, so that core is counted
    under "solve_pell"."""
    counts = {"classify_prime": 0, "solve_pell": 0}
    namespaces = [m for key, m in sys.modules.items()
                  if m is not None and (key == "cyclosvp" or key.startswith("cyclosvp."))]
    for home, name, key in ((ntheory, "classify_prime", "classify_prime"),
                            (pell, "pell_from_root", "solve_pell")):
        original = getattr(home, name)

        def counted(*args, _name=key, _fn=original, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)

        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    monkeypatch.setattr(ns, attr, counted)
    return counts


@pytest.mark.parametrize("p", [89, 71])  # 9 and 7 (mod 16)
def test_lambda1_classifies_and_solves_pell_once(calls, p):
    code, _ = run_cli("lambda1", "--p", p, "--n", 4)
    assert code == 0
    assert calls == {"classify_prime": 1, "solve_pell": 1}


@pytest.mark.parametrize("p", [89, 71, 17])  # 9, 7 and 1 (mod 16)
def test_zsqrt2_length_solves_pell_once(calls, p):
    lam = idealsvp.lambda1_sq_zsqrt2(p)
    assert lam == 2 * min(2 * pell.pell_oracle(p, 1).a ** 2 - p,
                          2 * pell.pell_oracle(p, -1).a ** 2 + p)
    assert calls["solve_pell"] == 1


def test_table_row_solves_pell_once(calls):
    code, text = run_cli("table", "--pmax", 100, "--classes", "9mod16", "--n", 2)
    assert code == 0
    rows = text.strip().split("\n")[1:]
    assert len(rows) == 3
    assert calls["solve_pell"] == len(rows)


# ---------------------------------------------------------------------------
# exit codes at p ~ 10^400, one fixed prime per class

BIG = 10**399
BIG_PRIME = {
    "5mod8": BIG + 5829,
    "3mod8": BIG + 4923,
    "9mod16": BIG + 7081,
    "7mod16": BIG + 2007,
    "1mod16": BIG + 3633,
    "15mod16": BIG + 1311,
}
BIG_COMPOSITE = BIG + 3  # no prime factor below 1000


def test_big_primes_are_in_their_classes():
    for label, p in BIG_PRIME.items():
        assert len(str(p)) == 400
        assert ntheory.class_label(p) == label


@pytest.mark.parametrize("label, n", [("5mod8", 2), ("3mod8", 2), ("9mod16", 2), ("7mod16", 3)])
def test_big_prime_covered_classes_exit_0_with_the_formula(label, n):
    p = BIG_PRIME[label]
    code, text = run_cli("lambda1", "--p", p, "--n", n)
    assert code == 0
    data = json.loads(text)
    assert data["certified"] is True
    lam = int(data["lambda1_squared"])
    if label in ("5mod8", "3mod8"):
        assert lam == (1 << n) * p and data["a_p"] is None
    else:
        a, b = int(data["a_p"]), int(data["b_p"])
        assert a * a - 2 * b * b == p and a * a < 2 * p and a >= 2 * b > 0
        assert lam == (1 << n) * a


@pytest.mark.parametrize("label", ["1mod16", "15mod16"])
def test_big_prime_uncovered_classes_exit_2(label):
    p = BIG_PRIME[label]
    code, text = run_cli("lambda1", "--p", p, "--n", 2)
    assert code == 2
    assert json.loads(text) == {"error": "class_not_covered", "class_mod16": label.split("mod")[0]}


def test_big_composite_exits_2():
    code, text = run_cli("lambda1", "--p", BIG_COMPOSITE, "--n", 2)
    assert code == 2 and json.loads(text) == {"error": "not_prime"}
