"""Report goldens, route agreement, the frozen report schema and reduced-basis
invariants."""

import json
import random
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
DATA = Path(__file__).parent / "data"

PSUPPORT = ["psupport", "--json", "--seed", "0"]
EXACT = PSUPPORT + ["--method", "exact"]
NO_RANK = PSUPPORT + ["--no-rank"]
LEGENDRE_EXP = ["x1*(1-x1)*d1^2 + (1-2*x1)*d1 - 1/4", "d2 - 1"]
TORUS_N3 = ["x1*d1 - x2*d2", "x2*d2 - x3*d3", "d1*d2*d3 - 1"]

# Every report golden, one row each: (id, CLI argv, file under tests/data).
# NO_RANK rows run the default, truncated route.
GOLDENS = [
    # every field of every report, including the rank samples over GF(2^2)
    # and GF(3^2), the notes and the coisotropy witnesses; every support in
    # the corpus is searched exhaustively, so the seed draws no point
    ("corpus-seed0", ["corpus", "--json", "--seed", "0"], "golden_corpus_seed0.json"),
    ("corpus-seed7", ["corpus", "--json", "--seed", "7"], "golden_corpus_seed0.json"),
    # e^(x1) at p = 3; its key order is frozen below
    (
        "exponential-p3",
        PSUPPORT + ["--prime", "3", "--vars", "1", "--name", "exponential", "d1 - 1"],
        "golden_report_exponential_p3.json",
    ),
    # the whole text report of x1, d1^3 at p = 3, which has a coisotropy
    # witness and a note: the report's fields in its own key order, then
    # the witness and the notes
    (
        "text-witness-p3",
        ["psupport", "-p", "3", "-n", "1", "x1", "d1^3"],
        "golden_text_witness_p3.txt",
    ),
    # Legendre times e^(x2) at p = 3 on the exact route, rank off
    (
        "exact-legendre-exp-p3",
        EXACT + ["--no-rank", "-n", "2", "-p", "3", *LEGENDRE_EXP],
        "golden_report_legendre_exp_p3.json",
    ),
    # the n = 3 system on the exact route, rank on: the 729 points of F_3^6
    # are searched exhaustively, so the rank samples do not depend on the seed
    (
        "exact-torus-n3-p3",
        EXACT + ["--name", "torus-n3", "-n", "3", "-p", "3", *TORUS_N3],
        "golden_report_torus_n3_p3.json",
    ),
    # the same system over Q: its symbol ideal has six elements, computed
    # under the (0 on x, 1 on d) weight order, whose grevlex tie-break
    # decides which basis is printed
    (
        "charvar-torus-n3",
        ["charvar", "--json", "-n", "3", *TORUS_N3],
        "golden_charvar_torus_n3.json",
    ),
    # d1^2 + 1 at p = 11: F_11 has no square root of -1, so the rank samples
    # come from GF(11^2), each fibre read from 11 x 11 module rows, past
    # every field and prime the corpus reaches
    (
        "rank-gf121",
        EXACT + ["-n", "1", "-p", "11", "d1^2 + 1"],
        "golden_report_rank_gf121_p11.json",
    ),
    # t^3 + t + 1 is the Conway polynomial of GF(2^3): every sample lies
    # there, where -1 = 1, and one has the coordinate (t^2)
    (
        "rank-gf8",
        EXACT + ["-n", "1", "-p", "2", "d1^3 + d1 + 1"],
        "golden_report_rank_gf8_p2.json",
    ),
    # t^3 - t - 1 has no root in F_3, so every sample lies in GF(3^3)
    (
        "rank-gf27",
        EXACT + ["-n", "1", "-p", "3", "d1^3 - d1 - 1"],
        "golden_report_rank_gf27_p3.json",
    ),
    # Legendre times e^(x2) at p = 7 on the exact route, rank on: two
    # blocks, each eliminated and read on its own simple module at n = 1
    (
        "product-legendre-exp-p7",
        EXACT + ["-n", "2", "-p", "7", *LEGENDRE_EXP],
        "golden_report_legendre_exp_p7.json",
    ),
    # d1 - x1 at n = 2 on the exact route, rank on: one block at n = 1, and
    # the untouched pair (x2, d2) multiplies each fibre by p^2, to 125
    (
        "product-untouched-p5",
        EXACT + ["-n", "2", "-p", "5", "d1 - x1"],
        "golden_report_untouched_x2_p5.json",
    ),
    # stabilized(2) on the plateau, with monomials skipped
    (
        "truncated-plateau-p5",
        NO_RANK + ["-n", "2", "-p", "5", "d1^2 - x1", "d2 - x2"],
        "golden_report_truncated_plateau_p5.json",
    ),
    # stabilized(21): one generator, so the first nonzero kernel ends the ladder
    (
        "truncated-principal-p7",
        NO_RANK + ["-n", "2", "-p", "7", "x2*d1*d2 + d1 - 3"],
        "golden_report_truncated_principal_p7.json",
    ),
    # stabilized(2) on the plateau: no external product
    (
        "truncated-torus-p5",
        NO_RANK + ["-n", "2", "-p", "5", "d1*d2 - 1", "x1*d1 - x2*d2"],
        "golden_report_truncated_torus_p5.json",
    ),
    # truncated(6): two one-element blocks, both generators first in the
    # kernel at the top degree, where the ladder ends
    (
        "truncated-top-p3",
        NO_RANK + ["-n", "2", "-p", "3", "d2", "x1^3*d1^3 - x1*d1^3 - d1^2 - x1"],
        "golden_report_truncated_top_p3.json",
    ),
    # stabilized(4): Legendre times e^(x2), two one-element blocks whose
    # generators end the ladder
    (
        "truncated-legendre-exp-p11",
        NO_RANK + ["-n", "2", "-p", "11", *LEGENDRE_EXP],
        "golden_report_truncated_legendre_exp_p11.json",
    ),
    # stabilized(3) at n = 3 with six generators, where the rung past the
    # plateau skips the columns that the leads of J_3's reduced basis decide
    (
        "truncated-torus-n3-p5",
        NO_RANK + ["-n", "3", "-p", "5", *TORUS_N3],
        "golden_report_truncated_torus_n3_p5.json",
    ),
]


@pytest.mark.parametrize(
    "argv, golden", [row[1:] for row in GOLDENS], ids=[row[0] for row in GOLDENS]
)
def test_report_matches_golden(argv, golden, capsys, monkeypatch):
    monkeypatch.delenv("PWEYL_SEED", raising=False)
    assert run(argv) == 0
    assert capsys.readouterr().out == (DATA / golden).read_bytes().decode()


def test_every_golden_file_is_a_row():
    assert sorted({row[2] for row in GOLDENS}) == sorted(path.name for path in DATA.iterdir())


# The default route against the exact one on the same argv: (id, the
# default route's argv, its annihilator status).
AGREEMENTS = [
    # the ladder refuses the plateau (Xi2 - 1) of dimension 3 and climbs to
    # the exact answer
    ("legendre-exp-p3", NO_RANK + ["-n", "2", "-p", "3", *LEGENDRE_EXP], "stabilized(4)"),
    # the n = 3 system, no external product, rank on
    (
        "torus-n3-p3",
        PSUPPORT + ["--name", "torus-n3", "-n", "3", "-p", "3", *TORUS_N3],
        "stabilized(3)",
    ),
    # the same at p = 5, rank off: the exact route eliminates in a module of
    # 125 positions
    ("torus-n3-p5", NO_RANK + ["-n", "3", "-p", "5", *TORUS_N3], "stabilized(3)"),
    # one operator: its reduced left basis has one element, so the ladder
    # stops at the generator of I cap Z, which only the top degree 9 reaches
    ("principal-p3", NO_RANK + ["-n", "2", "-p", "3", "d1^2*d2 - x1"], "stabilized(9)"),
]


@pytest.mark.parametrize(
    "argv, status", [row[1:] for row in AGREEMENTS], ids=[row[0] for row in AGREEMENTS]
)
def test_default_route_agrees_with_the_exact_route(argv, status, capsys):
    assert run(argv) == 0
    default = json.loads(capsys.readouterr().out)
    assert run(argv[:1] + ["--method", "exact"] + argv[1:]) == 0
    exact = json.loads(capsys.readouterr().out)
    assert default["annihilator_status"] == status
    for key in ("annihilator", "dimension", "lagrangian"):
        assert default[key] == exact[key], key


def test_report_field_order_frozen():
    doc = json.loads((DATA / "golden_report_exponential_p3.json").read_text())
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
