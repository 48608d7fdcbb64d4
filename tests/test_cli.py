"""Surface syntax and command-line contract."""

from fractions import Fraction
import json
import random
import sys
import time

import pytest

from pweyl import WeylOp, parse_operator, parse_twisted, parse_weyl
import pweyl.corpus
from pweyl.cli import run
from pweyl.corpus import load_corpus
from pweyl.errors import IndexOutOfRange, MixedAlphabets, ParseError, PweylError
from pweyl.rings import QQ, Zmod

from helpers import random_mpoly, random_weylop

def test_parse_examples():
    op = parse_operator("d1^2 - x1", 1)
    d = WeylOp.d(QQ, 1, 0)
    x = WeylOp.x(QQ, 1, 0)
    assert op == d**2 - x
    # normal ordering applied during evaluation
    assert parse_operator("d1*x1", 1) == x * d + WeylOp.one(QQ, 1)


def test_parse_index_errors():
    with pytest.raises(IndexOutOfRange):
        parse_operator("d0", 1)
    with pytest.raises(IndexOutOfRange):
        parse_operator("x3", 2)


def test_mixed_alphabets_rejected():
    with pytest.raises(MixedAlphabets):
        parse_operator("x1*X1", 1)
    with pytest.raises(MixedAlphabets):
        parse_operator("X1 + 1", 1, expect="weyl")


def test_juxtaposition_rejected():
    with pytest.raises(ParseError):
        parse_operator("x1 x1", 1)


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_operator("d1 + %", 1)
    assert exc.value.position == 5


def test_rational_literals():
    op = parse_operator("1/2*x1", 1)
    x = WeylOp.x(QQ, 1, 0)
    from fractions import Fraction

    assert op == x.scale(Fraction(1, 2))
    f = parse_twisted("2/3*X1", 1, Zmod(5))
    assert f.terms[(1, 0)] == 4  # 2 * inv(3) = 2 * 2 = 4 mod 5


@pytest.mark.parametrize("ring", [Zmod(3), Zmod(9)], ids=str)
def test_a_literal_whose_denominator_is_no_unit_is_a_parse_error(ring):
    # over Z/3 the zero denominator raised DivisionByZero past the parser
    for parse, text in [(parse_weyl, "1/3*x1"), (parse_twisted, "1/3*X1")]:
        with pytest.raises(ParseError, match="literal 1/3") as exc:
            parse(text, 1, ring)
        assert exc.value.position == 0
    half = ring.from_fraction(Fraction(1, 2))
    assert parse_weyl("1/2*x1", 1, ring) == WeylOp.x(ring, 1, 0).scale(half)


@pytest.mark.parametrize(
    "argv",
    [
        ["bracket", "-p", "3", "-n", "1", "1/3*X1", "Xi1"],
        ["center-check", "-p", "3", "-n", "1", "1/3*x1"],
    ],
    ids=["bracket", "center-check"],
)
def test_cli_literal_whose_denominator_vanishes_is_exit_two(capsys, argv):
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith("parse error: literal 1/3")


def test_twisted_parse():
    R5 = Zmod(5)
    f = parse_twisted("Xi1 - 1", 1, R5)
    assert str(f) == "Xi1 - 1"


def test_print_parse_round_trip_weyl():
    rng = random.Random(2024)
    for _ in range(60):
        op = random_weylop(QQ, 2, rng)
        assert parse_weyl(str(op), 2, QQ) == op
    for _ in range(60):
        op = random_weylop(Zmod(7), 1, rng)
        assert parse_weyl(str(op), 1, Zmod(7)) == op


def test_print_parse_round_trip_twisted():
    from pweyl.center import twisted_names
    from pweyl.mpoly import PolyRing

    rng = random.Random(2025)
    R = PolyRing(Zmod(5), twisted_names(2))
    for _ in range(60):
        f = random_mpoly(R, rng)
        assert parse_twisted(str(f), 2, Zmod(5)) == f


def test_parser_fuzz_never_crashes():
    rng = random.Random(314159)
    alphabet = "xdXi0123456789+-*^()/ .qz\\\t\n"
    for _ in range(3000):
        length = rng.randrange(0, 24)
        text = "".join(rng.choice(alphabet) for _ in range(length))
        try:
            parse_operator(text, 2, QQ)
        except ParseError:
            pass


def test_long_sums_and_products_parse():
    # a sum or product is one node folded in a loop; a left-deep chain of
    # 1000 terms exhausted the recursion limit
    assert str(parse_weyl(" + ".join(["x1"] * 2000), 1)) == "2000*x1"
    assert str(parse_weyl("*".join(["d1"] * 2000), 1)) == "d1^2000"


def test_exponent_limit():
    x = WeylOp.x(QQ, 1, 0)
    assert parse_weyl("x1^4096", 1) == x**4096
    assert parse_weyl("x1^2^12", 1) == x**4096
    for text in ("x1^4097", "x1^2^13", "9^9^9^9"):
        with pytest.raises(ParseError, match="the limit 4096"):
            parse_weyl(text, 1)


# Python's cap on the digits of an integer string (3.11, and backports)
_DIGIT_CAP = getattr(sys, "get_int_max_str_digits", lambda: 0)()

HOSTILE = {
    "nested-parentheses": "(" * 400 + "x1" + ")" * 400,
    "exponent-tower": "x1^" + "1^" * 1000 + "1",
    "long-literal": pytest.param(
        "1" * 5000,
        marks=pytest.mark.skipif(not 0 < _DIGIT_CAP < 5000, reason="no cap on int digits"),
    ),
    "long-index": "x" + "1" * 5000,
}


@pytest.mark.parametrize("text", HOSTILE.values(), ids=HOSTILE)
def test_hostile_input_is_a_parse_error(tmp_path, capsys, text):
    # deep nesting and numbers past the digit cap raised RecursionError and
    # ValueError past the parser, the CLI and the corpus loader
    with pytest.raises(ParseError):
        parse_weyl(text, 1)
    assert run(["psupport", "--prime", "3", "--vars", "1", text]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1
    entry = {"name": "probe", "n": 1, "generators": [text], "primes": [3]}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"schema": "pweyl-corpus-v1", "entries": [entry]}))
    assert run(["corpus", "--run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert "entry 0 ('probe')" in err


# ---------------------------------------------------------------------------
# command-line surface
# ---------------------------------------------------------------------------


def test_cli_psupport_json(capsys):
    code = run(["psupport", "--prime", "3", "--vars", "1", "--json", "d1 - 1"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["annihilator"] == ["Xi1 - 1"]
    assert doc["dimension"] == 1
    assert doc["lagrangian"] is True
    assert doc["conical"] is False


def test_cli_psupport_human(capsys):
    code = run(["psupport", "--prime", "3", "--vars", "1", "d1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "annihilator: Xi1" in out
    assert "lagrangian: True" in out


def test_cli_bracket_values(capsys):
    assert run(["bracket", "--prime", "3", "--vars", "1", "Xi1", "X1"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert run(["bracket", "--prime", "3", "--vars", "1", "--canonical", "Xi1", "X1"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_cli_charvar(capsys):
    code = run(["charvar", "--vars", "1", "--json", "d1 - 1"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["symbol_ideal"] == ["xi1"]
    assert doc["dimension"] == 1
    assert doc["holonomic"] is True


def test_cli_charvar_human(capsys):
    assert run(["charvar", "-n", "2", "d1*d2 - 1", "x1*d1 - x2*d2"]) == 0
    assert capsys.readouterr().out == (
        "symbol ideal: xi1*xi2, x1*xi1 - x2*xi2, x2*xi2^2\n"
        "dimension: 2\n"
        "holonomic: True\n"
    )


def test_cli_center_check(capsys):
    assert run(["center-check", "--prime", "3", "--vars", "1", "x1^3"]) == 0
    assert "central: true" in capsys.readouterr().out
    assert run(["center-check", "--prime", "3", "--vars", "1", "x1"]) == 0
    out = capsys.readouterr().out
    assert "central: false" in out and "witness" in out


def test_cli_bad_prime_is_exit_one(capsys):
    code = run(["psupport", "--prime", "2", "--vars", "1", "x1*d1 - 1/2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "denominator" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["psupport", "-p", "3", "-n", "1", "0"], ["charvar", "-n", "1", "d1 - d1"]],
    ids=["psupport", "charvar"],
)
def test_cli_zero_generator_is_one_error_line(capsys, argv):
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: zero generator in module presentation\n"


def test_cli_parse_error_is_exit_two(capsys):
    code = run(["psupport", "--prime", "3", "--vars", "1", "d1 +"])
    assert code == 2
    code = run(["psupport", "--prime", "3", "--vars", "1", "d0"])
    assert code == 2


def test_cli_usage_error_is_exit_two(capsys):
    assert run(["psupport", "--frobnicate"]) == 2
    assert run([]) == 2
    assert run(["psupport", "--prime", "4", "--vars", "1", "d1"]) == 2


@pytest.mark.parametrize("primes", ["4", "x", "2,x", "3,"])
def test_cli_corpus_bad_primes_is_usage_error(capsys, primes):
    assert run(["corpus", "--primes", primes]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--primes" in err


@pytest.mark.parametrize(
    "content",
    [None, "not json {", json.dumps({"schema": "pweyl-corpus-v1"}), json.dumps([1, 2])],
    ids=["missing", "not-json", "no-entries", "not-an-object"],
)
def test_cli_corpus_bad_file_is_one_error_line(tmp_path, capsys, content):
    path = tmp_path / "corpus.json"
    if content is not None:
        path.write_text(content)
    assert run(["corpus", "--run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err
    with pytest.raises(PweylError, match="corpus.json"):
        load_corpus(path)


BAD_ENTRY_FIELDS = {
    "n-string": ("n", "1"),
    "n-zero": ("n", 0),
    "prime-4": ("primes", [4]),
    "prime-string": ("primes", ["3"]),
    "generators-string": ("generators", "d1 - 1"),
    "no-generators": ("generators", []),
    "expected-string": ("expected", {"3": "x"}),
    "expected-unknown-field": ("expected", {"3": {"annihilatr": ["Xi1 + 1"]}}),
    "expected-prime-4": ("expected", {"4": {"dimension": 1}}),
    "expected-leading-zero": ("expected", {"3": {"dimension": 1}, "03": {"dimension": 2}}),
    "zero-generator": ("generators", ["d1 - d1"]),
}


@pytest.mark.parametrize("field, value", BAD_ENTRY_FIELDS.values(), ids=BAD_ENTRY_FIELDS)
def test_cli_corpus_bad_entry_is_one_error_line(tmp_path, capsys, field, value):
    entry = {"name": "probe", "n": 1, "generators": ["d1 - 1"], "primes": [3], field: value}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"schema": "pweyl-corpus-v1", "entries": [entry]}))
    assert run(["corpus", "--run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(path) in err and "entry 0 ('probe')" in err and field in err
    with pytest.raises(PweylError, match="corpus.json"):
        load_corpus(path)


def test_corpus_with_a_large_prime_loads_promptly(tmp_path, capsys):
    # trial division up to the square root took minutes on 10^18 + 3; a
    # prime past the bound where primality is decided exactly is refused
    entry = {"name": "probe", "n": 1, "generators": ["d1 - 1"], "primes": [10**18 + 3]}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"schema": "pweyl-corpus-v1", "entries": [entry]}))
    start = time.perf_counter()
    (loaded,) = load_corpus(path)
    assert time.perf_counter() - start < 5
    assert loaded.primes == (10**18 + 3,)
    entry["primes"] = [2**89 - 1]
    path.write_text(json.dumps({"schema": "pweyl-corpus-v1", "entries": [entry]}))
    with pytest.raises(PweylError, match="entry 0 .* at or above 3317044064679887385961981"):
        load_corpus(path)
    assert run(["corpus", "--run", str(path)]) == 1
    assert run(["corpus", "--primes", str(2**89 - 1)]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "3317044064679887385961981" in err


def test_cli_corpus_bad_generator_is_a_parse_error_before_any_report(tmp_path, capsys, monkeypatch):
    # d2 in an entry with n = 1: exit 2 with one line naming the file, the
    # entry and the generator, and no report run for the good first entry
    good = {"name": "good", "n": 1, "generators": ["d1 - 1"], "primes": [3]}
    bad = {"name": "probe", "n": 1, "generators": ["d1", "d2 - 1"], "primes": [3]}
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps({"schema": "pweyl-corpus-v1", "entries": [good, bad]}))
    calls = []
    monkeypatch.setattr(pweyl.corpus, "p_support", lambda *a, **k: calls.append(a))
    assert run(["corpus", "--run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and calls == []
    err = captured.err
    assert err.startswith("parse error: ") and err.count("\n") == 1
    assert str(path) in err and "entry 1 ('probe')" in err and "'d2 - 1'" in err
    assert "index 2 outside 1..1" in err
    with pytest.raises(ParseError, match="entry 1"):
        load_corpus(path)


def test_cli_corpus_runs_green(capsys):
    code = run(["corpus"])
    out = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in out


def test_cli_corpus_json_deterministic(capsys):
    assert run(["corpus", "--json", "--seed", "0", "--primes", "2,3"]) == 0
    first = capsys.readouterr().out
    assert run(["corpus", "--json", "--seed", "0", "--primes", "2,3"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_cli_corpus_external_file(tmp_path, capsys):
    doc = {
        "schema": "pweyl-corpus-v1",
        "entries": [
            {
                "name": "probe",
                "n": 1,
                "generators": ["d1"],
                "primes": [3],
                "expected": {"3": {"annihilator": ["Xi1"], "generic_rank": 3}},
            }
        ],
    }
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(doc))
    assert run(["corpus", "--run", str(path)]) == 0
    assert "ok  probe p=3" in capsys.readouterr().out


def test_cli_corpus_mismatch_is_exit_one(tmp_path, capsys):
    doc = {
        "schema": "pweyl-corpus-v1",
        "entries": [
            {
                "name": "probe",
                "n": 1,
                "generators": ["d1"],
                "primes": [3],
                "expected": {"3": {"dimension": 2}},
            }
        ],
    }
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(doc))
    assert run(["corpus", "--run", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL probe p=3" in out and "dimension" in out


def test_corpus_entry_expecting_a_bad_prime_that_reduces_fails(tmp_path, capsys):
    # d1 - 1 reduces at p = 3, so an entry that expects a bad prime there
    # fails with its report and one mismatch
    doc = {
        "schema": "pweyl-corpus-v1",
        "entries": [
            {
                "name": "probe",
                "n": 1,
                "generators": ["d1 - 1"],
                "primes": [3],
                "expected": {"3": {"bad_prime": True}},
            }
        ],
    }
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(doc))
    [result] = pweyl.corpus.run_corpus(path)
    assert (result.name, result.prime, result.ok) == ("probe", 3, False)
    assert result.mismatches == ("expected a bad prime, reduction succeeded",)
    assert result.report["annihilator"] == ["Xi1 - 1"]
    assert run(["corpus", "--run", str(path)]) == 1
    assert capsys.readouterr().out == (
        "FAIL probe p=3\n     expected a bad prime, reduction succeeded\n0/1 passed\n"
    )


def test_cli_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("PWEYL_SEED", "17")
    code = run(["psupport", "--prime", "3", "--vars", "1", "--json", "d1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["generic_rank"] == 3


@pytest.mark.parametrize("command", [["psupport", "-p", "3", "-n", "1", "d1 - 1"], ["corpus"]])
def test_cli_env_seed_must_be_an_integer(capsys, monkeypatch, command):
    monkeypatch.setenv("PWEYL_SEED", "abc")
    assert run(command) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "PWEYL_SEED" in captured.err
    # --seed wins over the environment, which is then never read
    assert run(command[:1] + ["--seed", "3"] + command[1:]) == 0
