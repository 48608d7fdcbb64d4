"""Frozen report schema and reduced-basis invariants."""

import io
import json
import random
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from pweyl import DModuleSpec, buchberger, p_support, parse_weyl
from pweyl.cli import run
from pweyl.mpoly import PolyRing
from pweyl.orders import monomial_divides
from pweyl.psupport import REPORT_SCHEMA
from pweyl.rings import QQ, Zmod

from helpers import random_mpoly

SCHEMAS_DOC = Path(__file__).parent.parent / "docs" / "schemas.md"
GOLDEN = Path(__file__).parent / "data" / "golden_report_exponential_p3.json"
GOLDEN_CORPUS = Path(__file__).parent / "data" / "golden_corpus_seed0.json"
GOLDEN_LEGENDRE = Path(__file__).parent / "data" / "golden_report_legendre_exp_p3.json"
GOLDEN_TORUS_N3 = Path(__file__).parent / "data" / "golden_report_torus_n3_p3.json"
GOLDEN_CHARVAR_TORUS_N3 = Path(__file__).parent / "data" / "golden_charvar_torus_n3.json"
GOLDEN_RANK_GF121 = Path(__file__).parent / "data" / "golden_report_rank_gf121_p11.json"
GOLDEN_RANK_GF8 = Path(__file__).parent / "data" / "golden_report_rank_gf8_p2.json"
GOLDEN_RANK_GF27 = Path(__file__).parent / "data" / "golden_report_rank_gf27_p3.json"
GOLDEN_TRUNCATED_PLATEAU = (
    Path(__file__).parent / "data" / "golden_report_truncated_plateau_p5.json"
)
GOLDEN_PRODUCT_LEGENDRE = Path(__file__).parent / "data" / "golden_report_legendre_exp_p7.json"
GOLDEN_PRODUCT_UNTOUCHED = Path(__file__).parent / "data" / "golden_report_untouched_x2_p5.json"
GOLDEN_TRUNCATED_PRINCIPAL = (
    Path(__file__).parent / "data" / "golden_report_truncated_principal_p7.json"
)
GOLDEN_TRUNCATED_TORUS = Path(__file__).parent / "data" / "golden_report_truncated_torus_p5.json"
GOLDEN_TRUNCATED_TOP = Path(__file__).parent / "data" / "golden_report_truncated_top_p3.json"
GOLDEN_TRUNCATED_TORUS_N3 = (
    Path(__file__).parent / "data" / "golden_report_truncated_torus_n3_p5.json"
)
GOLDEN_TRUNCATED_LEGENDRE = (
    Path(__file__).parent / "data" / "golden_report_truncated_legendre_exp_p11.json"
)


def test_json_report_matches_frozen_golden():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(
            [
                "psupport",
                "--prime",
                "3",
                "--vars",
                "1",
                "--json",
                "--seed",
                "0",
                "--name",
                "exponential",
                "d1 - 1",
            ]
        )
    assert code == 0
    assert buf.getvalue() == GOLDEN.read_text()


LEGENDRE_EXP_ARGS = [
    "--no-rank",
    "--json",
    "--seed",
    "0",
    "-n",
    "2",
    "-p",
    "3",
    "x1*(1-x1)*d1^2 + (1-2*x1)*d1 - 1/4",
    "d2 - 1",
]


def test_exact_n2_report_matches_frozen_golden():
    # Legendre times e^(x2) at p = 3 on the exact route, rank off
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(["psupport", "--method", "exact"] + LEGENDRE_EXP_ARGS)
    assert code == 0
    assert buf.getvalue() == GOLDEN_LEGENDRE.read_text()


def test_default_route_agrees_with_the_exact_n2_golden():
    # the same input on the default, truncated route: the ladder refuses
    # the plateau (Xi2 - 1) of dimension 3 and climbs to the exact answer
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(["psupport"] + LEGENDRE_EXP_ARGS)
    assert code == 0
    got, want = json.loads(buf.getvalue()), json.loads(GOLDEN_LEGENDRE.read_text())
    assert got["annihilator_status"] == "stabilized(4)"
    for key in ("annihilator", "dimension", "lagrangian"):
        assert got[key] == want[key], key


def test_exact_n3_report_matches_frozen_golden():
    # x1*d1 - x2*d2, x2*d2 - x3*d3, d1*d2*d3 - 1 at p = 3 on the exact route,
    # rank on: the 729 points of F_3^6 are searched exhaustively, so the
    # rank samples do not depend on the seed
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(
            ["psupport", "--method", "exact", "--json", "--seed", "0", "--name", "torus-n3"]
            + ["-n", "3", "-p", "3", "x1*d1 - x2*d2", "x2*d2 - x3*d3", "d1*d2*d3 - 1"]
        )
    assert code == 0
    assert buf.getvalue() == GOLDEN_TORUS_N3.read_text()


def test_charvar_n3_matches_frozen_golden():
    # the same system over Q: its symbol ideal has six elements, computed
    # under the (0 on x, 1 on d) weight order, whose grevlex tie-break
    # decides which basis is printed
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(
            ["charvar", "--json", "-n", "3"]
            + ["x1*d1 - x2*d2", "x2*d2 - x3*d3", "d1*d2*d3 - 1"]
        )
    assert code == 0
    assert buf.getvalue() == GOLDEN_CHARVAR_TORUS_N3.read_text()


def test_rank_over_gf121_matches_frozen_golden():
    # d1^2 + 1 at p = 11: F_11 has no square root of -1, so the rank samples
    # come from GF(11^2), each fibre read from 11 x 11 module rows, past
    # every field and prime the corpus reaches
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(
            ["psupport", "--method", "exact", "--json", "--seed", "0", "-n", "1", "-p", "11"]
            + ["d1^2 + 1"]
        )
    assert code == 0
    assert buf.getvalue() == GOLDEN_RANK_GF121.read_text()


@pytest.mark.parametrize(
    "prime, generator, golden",
    [
        # t^3 + t + 1 is the Conway polynomial of GF(2^3): every sample lies
        # there, where -1 = 1, and one has the coordinate (t^2)
        ("2", "d1^3 + d1 + 1", GOLDEN_RANK_GF8),
        # t^3 - t - 1 has no root in F_3, so every sample lies in GF(3^3)
        ("3", "d1^3 - d1 - 1", GOLDEN_RANK_GF27),
    ],
    ids=["gf8", "gf27"],
)
def test_rank_over_cubic_extensions_matches_frozen_golden(prime, generator, golden):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(
            ["psupport", "--method", "exact", "--json", "--seed", "0", "-n", "1", "-p", prime]
            + [generator]
        )
    assert code == 0
    assert buf.getvalue() == golden.read_text()


@pytest.mark.parametrize(
    "prime, generators, golden",
    [
        # Legendre times e^(x2) at p = 7, rank on: two blocks, each eliminated
        # and read on its own simple module at n = 1
        ("7", ["x1*(1-x1)*d1^2 + (1-2*x1)*d1 - 1/4", "d2 - 1"], GOLDEN_PRODUCT_LEGENDRE),
        # d1 - x1 at n = 2: one block at n = 1, and the untouched pair
        # (x2, d2) multiplies each fibre by p^2, to 125
        ("5", ["d1 - x1"], GOLDEN_PRODUCT_UNTOUCHED),
    ],
    ids=["legendre-exp", "untouched"],
)
def test_external_product_report_matches_frozen_golden(prime, generators, golden):
    # whole reports of the exact route on external products, rank on
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(
            ["psupport", "--method", "exact", "--json", "--seed", "0", "-n", "2", "-p", prime]
            + generators
        )
    assert code == 0
    assert buf.getvalue() == golden.read_text()


@pytest.mark.parametrize(
    "prime, generators, golden",
    [
        # stabilized(2) on the plateau, with monomials skipped
        ("5", ["d1^2 - x1", "d2 - x2"], GOLDEN_TRUNCATED_PLATEAU),
        # stabilized(21): one generator, so the first nonzero kernel ends the ladder
        ("7", ["x2*d1*d2 + d1 - 3"], GOLDEN_TRUNCATED_PRINCIPAL),
        # stabilized(2) on the plateau: no external product
        ("5", ["d1*d2 - 1", "x1*d1 - x2*d2"], GOLDEN_TRUNCATED_TORUS),
        # truncated(6): two one-element blocks, both generators first in the
        # kernel at the top degree, where the ladder ends
        ("3", ["d2", "x1^3*d1^3 - x1*d1^3 - d1^2 - x1"], GOLDEN_TRUNCATED_TOP),
        # stabilized(4): Legendre times e^(x2), two one-element blocks whose
        # generators end the ladder
        ("11", ["x1*(1-x1)*d1^2 + (1-2*x1)*d1 - 1/4", "d2 - 1"], GOLDEN_TRUNCATED_LEGENDRE),
    ],
    ids=["plateau", "principal", "torus", "top-degree", "legendre-exp"],
)
def test_truncated_route_report_matches_frozen_golden(prime, generators, golden):
    # whole reports of the default, truncated route at n = 2, notes included
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(
            ["psupport", "--no-rank", "--json", "--seed", "0", "-n", "2", "-p", prime] + generators
        )
    assert code == 0
    assert buf.getvalue() == golden.read_text()


def test_truncated_n3_report_matches_frozen_golden():
    # the default route at n = 3, p = 5, rank off: stabilized(3) with six
    # generators, where the rung past the plateau skips the columns that the
    # leads of J_3's reduced basis decide
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(
            ["psupport", "--no-rank", "--json", "--seed", "0", "-n", "3", "-p", "5"]
            + ["x1*d1 - x2*d2", "x2*d2 - x3*d3", "d1*d2*d3 - 1"]
        )
    assert code == 0
    assert buf.getvalue() == GOLDEN_TRUNCATED_TORUS_N3.read_text()


@pytest.mark.parametrize("seed", ["0", "7"])
def test_corpus_json_matches_frozen_golden(seed):
    # every field of every report, including the rank samples over GF(2^2)
    # and GF(3^2), the notes and the coisotropy witnesses; every support in
    # the corpus is searched exhaustively, so the seed draws no point
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = run(["corpus", "--json", "--seed", seed])
    assert code == 0
    assert buf.getvalue() == GOLDEN_CORPUS.read_text()


def test_report_field_order_frozen():
    doc = json.loads(GOLDEN.read_text())
    assert doc["schema"] == REPORT_SCHEMA
    assert list(doc.keys()) == [
        "schema",
        "name",
        "prime",
        "n",
        "annihilator",
        "annihilator_status",
        "dimension",
        "coisotropic",
        "coisotropy_witness",
        "lagrangian",
        "conical",
        "generic_rank",
        "rank_samples",
        "notes",
    ]


def test_schema_doc_lists_the_report_keys_in_order():
    # the support-report table of docs/schemas.md names exactly the keys of
    # SupportReport.to_dict(), in their order
    text = SCHEMAS_DOC.read_text()
    section = text.split("## Support report (`pweyl-report-v1`)")[1].split("\n## ")[0]
    rows = [line for line in section.splitlines() if line.startswith("| `")]
    documented = [line.split("`")[1] for line in rows]
    report = p_support(DModuleSpec(1, (parse_weyl("d1 - 1", 1, QQ),)), 3)
    assert documented == list(report.to_dict())


def test_bases_are_reduced():
    # monic elements, and no term of any element divisible by another's lead
    R = PolyRing(Zmod(5), ("a", "b", "c"))
    rng = random.Random(5150)
    for _ in range(25):
        gens = [random_mpoly(R, rng, max_degree=3, nonzero=True) for _ in range(3)]
        basis = buchberger(gens)
        leads = [g.leading() for g in basis]
        for _, lc in leads:
            assert lc == 1
        for i, g in enumerate(basis):
            for j, (le, _) in enumerate(leads):
                if i == j:
                    continue
                for e in g.terms:
                    assert not monomial_divides(le, e), (i, j)
