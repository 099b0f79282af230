import hashlib
import io
import json
import os
import subprocess
import sys

import pytest

from cyclosvp import cli, idealsvp, ntheory, pell, rings
from cyclosvp.errors import ConsistencyError
from cyclosvp.rings import canonical_sq_length, cyclotomic, element, field_norm


def run_cli(*argv):
    out = io.StringIO()
    code = cli.run(list(argv), out=out)
    return code, out.getvalue()


def run_json(*argv):
    code, text = run_cli(*argv)
    return code, json.loads(text)


def test_pell_command():
    code, data = run_json("pell", "--p", "89")
    assert code == 0 and data == {"a_p": "11", "b_p": "4"}
    code, data = run_json("pell", "--p", "89", "--sign", "-1")
    assert code == 0 and data == {"a_-p": "3", "b_-p": "7"}


def test_pell_unsolvable_class_is_domain_error():
    code, data = run_json("pell", "--p", "13")
    assert code == 2 and data["error"] == "equation_unsolvable"


def test_lambda1_command_matches_reference_output():
    code, data = run_json("lambda1", "--p", "89", "--n", "2")
    assert code == 0
    assert data["lambda1_squared"] == "44"
    assert data["lambda1_decimal"] == "6.63324958071"
    assert data["witness"] == {"ring": "zeta8", "coeffs": ["0", "1", "1", "3"]}
    assert data["certified"] is True


def test_lambda1_round_trips():
    code, data = run_json("lambda1", "--p", "73", "--n", "3")
    assert code == 0
    again_code, again = run_json("lambda1", "--p", int(data["p"]).__str__(), "--n", "3")
    assert again_code == 0 and again == data


def test_lambda1_enumeration_fallback_at_60_digits():
    # p = 1 (mod 16) just above 10^60: one rank-4 enumeration certifies it
    p = 10**60 + 3201
    code, data = run_json("lambda1", "--p", str(p), "--n", "2", "--enumerate-fallback")
    assert code == 0 and data["method"] == "enumeration"
    lam = int(data["lambda1_squared"])
    witness = element(cyclotomic(2), [int(c) for c in data["witness"]["coeffs"]])
    assert lam == canonical_sq_length(witness) and field_norm(witness) % p == 0
    assert lam * lam >= 16 * p  # AM-GM: lambda1^2 >= d N^(2/d) with d = 4


# sha256 over n = 1..5 of each `lambda1 --enumerate-fallback` run's exit
# code and stdout (f"{code}\n{stdout}"), recorded from the implementation
# in which the fallback certified its answers outside the tower's route
_FALLBACK_SHA256 = {
    17: "5d2bf3f8a853c311d58dbd61484e7a80e31b8e776cae02003127b84fde92455b",
    31: "bf83600b727a43836068f9c027358f646840ccca3fc9096d4bf12b2b8dc4dd1f",
    47: "5e51b7beb0df1f82e5f7f8b340bc1e7da411bd9893af57a71688f13c30160d58",
    97: "0295fd013646f1168844a4ab63b058b06cbb69085f6bf60346ec8fa60a4ca01b",
    113: "6cd2b2847ed89dbf28aa56438bec644731b3e68886aea2deaa681db74270dece",
    127: "ff5afd2c37c735b627eb677e38f732ad740e6bc1bf62d202a245f4155435b09c",
    193: "bd31dc5c9265da97c878aa882ad7a37282c04e731b9c64817e67c1253dcd1f9b",
    257: "0c8faeb80bf9406ef26f3ddf2c5fb95a3e2d92bf74307d4cbe3365fb91e0dfda",
}


@pytest.mark.parametrize("p", sorted(_FALLBACK_SHA256))
def test_enumeration_fallback_output_is_pinned(p):
    digest = hashlib.sha256()
    for n in range(1, 6):
        code, text = run_cli("lambda1", "--p", str(p), "--n", str(n), "--enumerate-fallback")
        assert code == (2 if n == 5 else 0)  # rank 32 is above the enumeration cap
        data = json.loads(text)
        if code == 0:
            assert data["certified"] is False and data["method"] == "enumeration"
        digest.update(f"{code}\n{text}".encode())
    assert digest.hexdigest() == _FALLBACK_SHA256[p]


def test_shortest_prints_the_lambda1_witness():
    covered = [p for p in ntheory.sieve_primes(300)[1:] if ntheory.classify_prime(p).supported]
    for p in covered:
        for n in range(1, 7):
            code, text = run_cli("lambda1", "--p", str(p), "--n", str(n))
            s_code, s_text = run_cli("shortest", "--p", str(p), "--n", str(n))
            assert s_code == code
            if code:  # the same refusal: p = 7 (mod 16) below level 3
                assert s_text == text
                continue
            lam, short = json.loads(text), json.loads(s_text)
            assert short["sq_length"] == lam["lambda1_squared"]
            for key in ("witness", "method", "certified"):
                assert short[key] == lam[key]


# sha256 of the `lambda1` stdout at n = 5, 6, recorded from the
# implementation that kept dense d x d Gram and reduction tables (the two
# 200-digit 3, 5 (mod 8) primes: from the one that LLL-reduced their base HNF)
_LEVEL_5_6_SHA256 = {
    (13, 5): "f9966eca5f44c5b997aa0faf3081e25f5514d477926e958597c2869ffb3b6332",
    (13, 6): "a355360a807b0850f63eff91771d4de9d57902522b4db7a7d7a877248b96b8a6",
    (11, 5): "c8d1ae9a7a23d264449139da7a1dad2eb9a0b6d6d963c53d2751a2a284dcd8b8",
    (11, 6): "19cbd6d2325cdbf11efa3df61df16250d0d44667ea24c2f2091bb5a861a7ef1e",
    (89, 5): "134b19616fddce24fc51e42d23b6509b52fe8bf210d7dc525681ea2281330ac9",
    (89, 6): "a47644dbae75bfc66650e40d6b91df63be5da2bcae1bcedc11942e81a9cef972",
    (71, 5): "f73aa329187db4a9024157fb1849adbefe96badedc85e68d97eecdc1fcf78d4e",
    (71, 6): "b2278fe98575f12bedbff12e4c10f481ccc76177f28910f878763aefb32cb108",
    (10**199 + 4983, 5): "bd6fd1e7c78929e5c8cdb1bad1cf694588cfd1641b6a44ecabcceabbf4c94dec",
    (10**199 + 4983, 6): "653c22ee96559efb1ca62c0f499b7b69cb4410521c2b4015aff23f61392aad83",
    (10**199 + 1867, 5): "13a46509c57c7672d0ec8da07b90d188b24276eeb62d17fbb66b7711df97acd7",
    (10**199 + 1867, 6): "0f5c39f0e341526ac81ddb6d6baaeddb5019f584f5027f497c88772ae548fdc4",
    (10**199 + 2229, 5): "43d07884fe1ef20b791153735d6b8e25ea585824a8a863c46d6309a658f604fb",
    (10**199 + 2229, 6): "e34132564cdd0627320dbdb61b083b71cb263539f9d19131316967f0ba469fff",
}

# the same for n = 1..4, where the answer is certified by enumeration,
# recorded from the implementation that LLL-reduced the base HNF
_LEVEL_1_4_SHA256 = {
    (10**199 + 1867, 1): "93bbfc15a9942d7c62c003fe32077c70cea167908a1723b4f12bf629013aa80d",
    (10**199 + 1867, 2): "53bd1d77eec187ea20b87f84586497672f82bd1d94420f7a2ea073f74e32b8d4",
    (10**199 + 1867, 3): "99f8dc22ad67783710dc5a1731cb9a9e2e13f8e6cbf8778527c15925d30cbc36",
    (10**199 + 1867, 4): "8694008da74b1120c77bcfed3e0dd7ef86ca2ded92374bdd835f09d8a5226a74",
    (10**199 + 2229, 1): "58b2cb55794b25da64d5f8a9846fa1d6760e372a4735999552f752bfd843d939",
    (10**199 + 2229, 2): "060b2f7fc0b6a014119b88d0aca727fa81a8867f139c3922dcc88aa01837c506",
    (10**199 + 2229, 3): "140ba697d382d855cf5905109b52e294b4afb6f645968cb880e0c26397b8538a",
    (10**199 + 2229, 4): "c564fced1c2531d99a002ee4f8daa91ec49c23dccd045bd8c0df3e424eb0c498",
}


# 200-digit 3 and 5 (mod 8) primes, whose base is the generator basis
@pytest.mark.parametrize("p", [10**199 + 1867, 10**199 + 2229])
def test_lambda1_at_levels_1_to_4_is_pinned(p):
    for n in range(1, 5):
        code, text = run_cli("lambda1", "--p", str(p), "--n", str(n))
        assert code == 0 and json.loads(text)["certified"] is True
        assert hashlib.sha256(text.encode()).hexdigest() == _LEVEL_1_4_SHA256[p, n]


# 5, 3 (mod 8); 9, 7 (mod 16); 200-digit 7, 3, 5 (mod 16, 8, 8) primes
@pytest.mark.parametrize("p", [13, 11, 89, 71, 10**199 + 4983, 10**199 + 1867,
                               10**199 + 2229])
def test_lambda1_at_levels_5_to_12(p):
    scale = pell.solve_pell(p).a if p % 16 in (7, 9) else p
    for n in range(5, 13):
        code, text = run_cli("lambda1", "--p", str(p), "--n", str(n))
        assert code == 0
        data = json.loads(text)
        lam = int(data["lambda1_squared"])
        assert lam == (1 << n) * scale
        ring = cyclotomic(n)
        assert data["witness"]["ring"] == ring.name == f"zeta{2 ** (n + 1)}"
        witness = element(ring, [int(c) for c in data["witness"]["coeffs"]])
        assert canonical_sq_length(witness) == lam
        assert data["certified"] is False  # rank 2^n is above the enumeration cap
        if n <= 6:
            assert hashlib.sha256(text.encode()).hexdigest() == _LEVEL_5_6_SHA256[p, n]


def test_classify_uncovered_exits_2():
    code, data = run_json("classify", "--p", "31")
    assert code == 2
    assert data == {"error": "class_not_covered", "class_mod16": "15"}


def test_classify_supported():
    code, data = run_json("classify", "--p", "89")
    assert code == 0
    assert data["class_mod16"] == "9" and data["supported"] is True
    assert data["class"] == "9mod16"


def test_classify_composite_exits_2():
    code, data = run_json("classify", "--p", "91")
    assert code == 2 and data["error"] == "not_prime"


@pytest.mark.parametrize("command", ["classify", "lambda1", "shortest", "bounds"])
@pytest.mark.parametrize("p", ["-7", "0", "1", "91", "561"])
def test_non_primes_exit_2_as_not_prime(command, p):
    assert run_cli(command, "--p", p) == (2, '{"error": "not_prime"}\n')


def test_two_exits_2_as_ramified():
    for command in ("classify", "lambda1", "shortest", "bounds"):
        code, data = run_json(command, "--p", "2")
        assert code == 2
        assert data == {"error": "p = 2 is ramified in every ring of the tower; unsupported"}


@pytest.mark.parametrize("argv, library", [
    (("classify", "--p", "89"), lambda: ntheory.classify_prime(89)),
    (("lambda1", "--p", "89", "--n", "4"), lambda: idealsvp.lambda1_squared(89, 4)),
    (("lambda1", "--p", "13", "--n", "3"), lambda: idealsvp.lambda1_squared(13, 3)),
    (("shortest", "--p", "71", "--n", "3"), lambda: idealsvp.shortest_vector(71, 3)),
    (("bounds", "--p", "89", "--n", "2"), lambda: idealsvp.bounds(89, 2)),
])
def test_classifying_commands_add_no_primality_test(monkeypatch, argv, library):
    """classify_prime is the one primality test of these commands: the
    command runs is_prime as often as the library call it wraps."""
    calls = []
    real = ntheory.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    for module in (ntheory, idealsvp, pell, cli):
        monkeypatch.setattr(module, "is_prime", counting, raising=False)
    library()
    in_library = len(calls)
    calls.clear()
    code, _ = run_cli(*argv)
    assert code == 0 and len(calls) == in_library


def test_sqrtmod_default_residue_two():
    code, data = run_json("sqrtmod", "--p", "89")
    assert code == 0 and data["root"] == "25"
    code, data = run_json("sqrtmod", "--p", "7", "--a", "3")
    assert code == 0 and data["root"] is None and data["nonresidue"] is True


def test_shortest_command():
    code, data = run_json("shortest", "--p", "13", "--n", "3")
    assert code == 0
    assert data["sq_length"] == "104" and data["certified"] is True


def test_bounds_command():
    code, data = run_json("bounds", "--p", "89", "--n", "2")
    assert code == 0
    assert data["new_bound_radicand"] == "2848"
    assert data["bound_new_decimal"] == "7.30524854173"
    assert data["bound_minkowski_decimal"] == "12.2859146226"


def test_decimals_are_correctly_rounded_near_a_half_way_point():
    # 4p and 32p lie just above (1.234567890125 * 10^k)^2 and ^4: rounding
    # a 40-digit root, which reads ...5000 there, had rounded them down
    p = 38103946883192351812890625000000000000000000000000000000000621
    assert 4 * p > 1234567890125**2 * 10**38
    code, data = run_json("lambda1", "--p", str(p), "--n", "2")
    assert code == 0 and data["lambda1_decimal"] == "1.23456789013E+31"
    p = 725955384038572071105751629298633030004959106445312500000001401
    assert 32 * p > 1234567890125**4 * 10**16
    code, data = run_json("bounds", "--p", str(p), "--n", "2")
    assert code == 0 and data["bound_new_decimal"] == "1.23456789013E+16"
    code, data = run_json("lambda1", "--p", str(p), "--n", "2")
    assert code == 0 and data["bound_new_decimal"] == "1.23456789013E+16"


def test_table_9mod16_below_100():
    code, text = run_cli("table", "--pmax", "100", "--classes", "9mod16", "--n", "2")
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "p,class,a_p,lambda1_sq,bound_new,bound_minkowski,certified"
    assert [ln.split(",")[0] for ln in lines[1:]] == ["41", "73", "89"]
    assert all(ln.endswith("true") for ln in lines[1:])


def test_table_7mod16_below_100():
    code, text = run_cli("table", "--pmax", "100", "--classes", "7mod16", "--n", "3")
    assert code == 0
    lines = text.strip().split("\n")
    assert [ln.split(",")[0] for ln in lines[1:]] == ["7", "23", "71"]


def test_table_empty_class_set_header_only():
    code, text = run_cli("table", "--pmax", "100", "--classes", "", "--n", "2")
    assert code == 0
    assert text.strip() == "p,class,a_p,lambda1_sq,bound_new,bound_minkowski,certified"


def test_table_skips_levels_below_class_minimum():
    code, text = run_cli(
        "table", "--pmax", "50", "--classes", "7mod16,5mod8", "--n", "2"
    )
    assert code == 0
    rows = [ln.split(",") for ln in text.strip().split("\n")[1:]]
    assert all(r[1] == "5mod8" for r in rows)  # 7mod16 needs n >= 3


def test_table_json_round_trip():
    code, text = run_cli(
        "table", "--pmax", "60", "--classes", "3mod8", "--n", "2", "--format", "json"
    )
    assert code == 0
    rows = json.loads(text)
    for row in rows:
        assert row["lambda1_sq"] == str(4 * int(row["p"]))
        assert row["a_p"] == "" and row["bound_new"] == ""


def test_table_jobs_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        cli.run(["table", "--pmax", "30", "--n", "2", "--jobs", "2"])
    assert exc.value.code == 2


def test_cli_import_loads_no_process_pool():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import cyclosvp.cli; "
        "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
        "if m in sys.modules))"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code],
                          capture_output=True, text=True, check=True)
    assert done.stdout == "[]\n"


def test_table_level_below_one_exits_2():
    for fmt in ("csv", "json"):
        code, data = run_json("table", "--pmax", "300", "--n", "0", "--format", fmt)
        assert (code, data) == (2, {"error": "tower level must be >= 1, got 0"})
    code, data = run_json("table", "--pmax", "300", "--n", "-1")
    assert (code, data) == (2, {"error": "tower level must be >= 1, got -1"})


def test_level_above_max_exits_2_without_building_a_ring(monkeypatch):
    def refuse(k):
        raise AssertionError(f"cyclotomic({k}) built")

    monkeypatch.setattr(rings, "cyclotomic", refuse)
    monkeypatch.setattr(idealsvp, "cyclotomic", refuse)
    assert ntheory.MAX_LEVEL == 20
    for argv in (
        ("lambda1", "--p", "89", "--n", "21"),
        ("lambda1", "--p", "17", "--n", "21", "--enumerate-fallback"),
        ("shortest", "--p", "89", "--n", "21"),
        ("bounds", "--p", "89", "--n", "21"),
        ("table", "--pmax", "30", "--n", "21"),
    ):
        code, data = run_json(*argv)
        assert (code, data) == (2, {"error": "tower level must be <= 20, got 21"}), argv
    code, data = run_json("bounds", "--p", "89", "--n", "4000")
    assert (code, data) == (2, {"error": "tower level must be <= 20, got 4000"})
    code, data = run_json("bounds", "--p", "89", "--n", "20")  # the limit itself is admitted
    assert code == 0 and data["lambda1_squared"] == str(11 << 20)


def test_fallback_above_the_cap_exits_2_without_building_a_ring(monkeypatch):
    def refuse(k):
        raise AssertionError(f"cyclotomic({k}) built")

    monkeypatch.setattr(rings, "cyclotomic", refuse)
    monkeypatch.setattr(idealsvp, "cyclotomic", refuse)
    for n in (5, 12, 20):
        code, data = run_json("lambda1", "--p", "17", "--n", str(n), "--enumerate-fallback")
        assert (code, data) == (
            2, {"error": f"enumeration fallback needs rank <= 16, got {1 << n}"}), n


_CAP_QUERIES = (
    ["lambda1", "--p", "89", "--n", "4"],
    ["lambda1", "--p", "89", "--n", "5"],
    ["lambda1", "--p", "17", "--n", "4", "--enumerate-fallback"],
)


def _run_cap_queries(max_rank):
    """[exit code, stdout] of each _CAP_QUERIES command, run in a fresh
    interpreter with CYCLOSVP_MAX_RANK set to max_rank or unset."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {k: v for k, v in os.environ.items() if k != "CYCLOSVP_MAX_RANK"}
    if max_rank is not None:
        env["CYCLOSVP_MAX_RANK"] = max_rank
    code = (
        f"import io, json, sys; sys.path.insert(0, {src!r}); from cyclosvp import cli\n"
        f"outs = [io.StringIO() for _ in range({len(_CAP_QUERIES)})]\n"
        f"codes = [cli.run(argv, out=o) for argv, o in zip({list(_CAP_QUERIES)!r}, outs)]\n"
        "print(json.dumps([[c, o.getvalue()] for c, o in zip(codes, outs)]))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def test_stdout_ignores_the_old_rank_cap_variable():
    unset = _run_cap_queries(None)
    assert [c for c, _ in unset] == [0, 0, 0]
    assert json.loads(unset[0][1])["certified"] is True
    assert json.loads(unset[1][1])["certified"] is False
    for value in ("0", "8", "32", "abc"):
        assert _run_cap_queries(value) == unset, value


def test_parser_is_built_once_per_process(monkeypatch):
    built = []
    original = cli.build_parser

    def counted():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert run_json("pell", "--p", "89")[0] == 0
        assert run_cli("table", "--pmax", "30", "--n", "2")[0] == 0
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_table_unknown_class():
    code, data = run_json("table", "--pmax", "100", "--classes", "2mod7")
    assert code == 2 and "error" in data


def test_verify_command():
    code, data = run_json("verify", "--ring", "zi", "--norm-bound", "60")
    assert code == 0 and data["passed"] is True
    code, data = run_json("verify", "--ring", "theta16", "--norm-bound", "30")
    assert code == 0
    assert [c["p"] for c in data["zeta16_lift_checks"]] == ["7", "23"]


def test_internal_error_maps_to_exit_1(monkeypatch):
    def boom(args):
        raise ConsistencyError("forced")

    monkeypatch.setitem(cli._DISPATCH, "pell", boom)
    code, data = run_json("pell", "--p", "89")
    assert code == 1 and data["error"] == "internal_consistency"


def test_every_error_path_maps_to_1_or_2(monkeypatch):
    def boom(args):
        raise ValueError("unexpected")

    monkeypatch.setitem(cli._DISPATCH, "pell", boom)
    code, data = run_json("pell", "--p", "89")
    assert code == 1 and data["error"] == "internal"


@pytest.mark.parametrize("bound", ["1", "0", "-5"])
def test_verify_refuses_a_norm_bound_below_2(bound):
    # below 2 no ring has an ideal, so "passed" would report a check that never ran
    code, text = run_cli("verify", "--norm-bound", bound)
    assert code == 2
    assert text == f'{{"error": "norm bound must be at least 2, got {bound}"}}\n'


def test_verify_at_norm_bound_2_checks_an_ideal_in_every_ring():
    code, data = run_json("verify", "--norm-bound", "2")
    assert code == 0 and data["passed"] is True
    assert [r["ideals"] for r in data["reports"]] == ["1", "1", "1", "1"]
