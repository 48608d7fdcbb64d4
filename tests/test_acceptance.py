"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and
timings.  Every check is exact; the budgets are wall-clock ceilings.
"""

import itertools
import random
import time
from contextlib import contextmanager
from math import comb, factorial

from pweyl import (
    CIdeal,
    FrobeniusTwist,
    WeylOp,
    buchberger,
    canonical_bracket,
    central_annihilator_exact,
    central_annihilator_truncated,
    characteristic_variety,
    deformation_bracket,
    is_central,
    is_conical,
    p_support,
    parse_operator,
    parse_twisted,
    radical_member,
    specialize_mod_p,
)
from pweyl.center import _split_residues
from pweyl.cli import run
from pweyl.corpus import load_corpus
from pweyl.errors import ParseError
from pweyl.mpoly import MPoly, PolyRing
from pweyl.orders import GREVLEX
from pweyl.rings import QQ, Zmod

from helpers import (
    colon_by_tag,
    ideal_equal,
    radical_member_bruteforce,
    random_mpoly,
    random_weylop,
    recombine_residues,
    submodule_member,
)


@contextmanager
def criterion(num, label, budget):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {num} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - t0
    print(f"criterion {num} ({label}): PASS ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {num} took {elapsed:.1f}s, budget {budget}s"


def test_criterion_1_center_invariants():
    with criterion(1, "center and free rank p^2n", 10):
        for p, n in itertools.product((2, 3, 5), (1, 2)):
            tw = FrobeniusTwist(p, n)  # construction re-checks centrality
            F = tw.weyl_ring
            for i in range(n):
                assert is_central(WeylOp.x(F, n, i) ** p).is_central
                assert is_central(WeylOp.d(F, n, i) ** p).is_central
            # the residue split over the free basis x^a d^b, 0 <= a_i, b_i < p
            every = range(2 * n)
            rng = random.Random(p * 100 + n)
            for _ in range(200):
                f = random_weylop(F, n, rng, max_exp=3 * p)
                parts = _split_residues(f.terms, p, every)
                assert all(len(r) == 2 * n and max(r, default=0) < p for r in parts)
                assert recombine_residues(parts, p, every) == f.terms


def test_criterion_2_bracket_sign():
    with criterion(2, "deformation bracket = -canonical", 30):
        # pinned commutator values behind the bracket
        x4, d4 = WeylOp.x(Zmod(4), 1, 0), WeylOp.d(Zmod(4), 1, 0)
        assert (d4**2).commutator(x4**2) == WeylOp.constant(Zmod(4), 1, 2)
        x9, d9 = WeylOp.x(Zmod(9), 1, 0), WeylOp.d(Zmod(9), 1, 0)
        assert (d9**3).commutator(x9**3) == WeylOp.constant(Zmod(9), 1, 6)
        for p, n in itertools.product((2, 3, 5), (1, 2)):
            tw = FrobeniusTwist(p, n)
            R = tw.twisted_ring
            rng = random.Random(10_000 + p * 10 + n)
            for _ in range(100):
                f = random_mpoly(R, rng, max_degree=4)
                g = random_mpoly(R, rng, max_degree=4)
                assert deformation_bracket(f, g) == -canonical_bracket(f, g)


def _exact_guard_cases():
    for entry in load_corpus():
        spec = entry.spec()
        for p in entry.primes:
            expected = entry.expected.get(p, {})
            if expected.get("bad_prime"):
                continue
            if p ** (2 * entry.n) > 64:
                continue
            yield entry, spec, p, expected


def test_criterion_3_lagrangian_on_corpus():
    with criterion(3, "corpus supports are Lagrangian", 60):
        count = 0
        for entry, spec, p, expected in _exact_guard_cases():
            report = p_support(spec, p, seed=0, compute_rank=False)
            assert report.dimension == entry.n, (entry.name, p)
            assert report.coisotropic, (entry.name, p)
            assert report.lagrangian, (entry.name, p)
            got = CIdeal.of(
                [parse_twisted(s, entry.n, Zmod(p)) for s in report.annihilator],
                ring=FrobeniusTwist(p, entry.n).twisted_ring,
            )
            want = CIdeal.of(
                [parse_twisted(s, entry.n, Zmod(p)) for s in expected["annihilator"]],
                ring=FrobeniusTwist(p, entry.n).twisted_ring,
            )
            assert ideal_equal(got, want), (entry.name, p)
            count += 1
        assert count >= 20


def test_criterion_4_nonconical_finer_invariant():
    with criterion(4, "non-conical support, conical char variety", 5):
        d = WeylOp.d(QQ, 1, 0)
        one = WeylOp.one(QQ, 1)
        from pweyl import DModuleSpec

        spec = DModuleSpec(1, (d - one,), "exponential")
        for p in (2, 3, 5, 7):
            report = p_support(spec, p, seed=0, compute_rank=False)
            assert not report.conical, p
            assert report.lagrangian, p
        cv = characteristic_variety(spec)
        assert [str(g) for g in cv.ideal.groebner_basis()] == ["xi1"]
        assert cv.dimension == 1
        assert is_conical(cv.ideal)


def test_criterion_5_rank_is_p():
    with criterion(5, "generic rank b*p^n with b = 1", 30):
        x = WeylOp.x(QQ, 1, 0)
        d = WeylOp.d(QQ, 1, 0)
        one = WeylOp.one(QQ, 1)
        from pweyl import DModuleSpec

        for gens in ([d], [d - one], [d - x]):
            spec = DModuleSpec(1, tuple(gens))
            for p in (2, 3, 5):
                report = p_support(spec, p, seed=0, attempts=5)
                assert report.generic_rank == p, (str(gens[0]), p)
                assert len(report.rank_samples) >= 5, (str(gens[0]), p)
                assert report.generic_rank % p == 0
                assert (report.generic_rank // p) % p != 0  # b coprime to p


def test_criterion_6_oracle_identities():
    with criterion(6, "normal-ordering oracles", 5):
        for p in (2, 3, 5, 7):
            F = Zmod(p)
            x, d = WeylOp.x(F, 1, 0), WeylOp.d(F, 1, 0)
            assert (x * d) ** p == x**p * d**p + x * d
        xq, dq = WeylOp.x(QQ, 1, 0), WeylOp.d(QQ, 1, 0)
        for m in range(7):
            for k in range(7):
                closed = WeylOp(
                    QQ,
                    1,
                    {
                        (k - j, m - j): QQ.from_int(factorial(j) * comb(m, j) * comb(k, j))
                        for j in range(min(m, k) + 1)
                    },
                )
                assert dq**m * xq**k == closed, (m, k)


def test_criterion_7_exact_vs_truncated():
    with criterion(7, "exact vs truncated annihilators", 60):
        for entry, spec, p, expected in _exact_guard_cases():
            I = specialize_mod_p(spec, p)
            exact = central_annihilator_exact(I)
            trunc = central_annihilator_truncated(I)
            assert trunc.status.startswith("stabilized"), (entry.name, p)
            assert ideal_equal(exact.ideal, trunc.ideal), (entry.name, p)


def test_criterion_8_groebner_soundness():
    with criterion(8, "groebner engine soundness", 60):
        rng = random.Random(880)
        R3 = PolyRing(Zmod(5), ("a", "b", "c"))
        for _ in range(50):
            gens = [
                random_mpoly(R3, rng, max_degree=3, nonzero=True)
                for _ in range(rng.randrange(2, 4))
            ]
            base = buchberger(gens)
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert buchberger(shuffled) == base
            I = CIdeal.of(gens)
            f = random_mpoly(R3, rng, max_degree=2)
            bound = 2 * len(gens) * max(2, max(g.total_degree() for g in gens))
            assert radical_member(f, I) == radical_member_bruteforce(f, I, bound)
        R2 = PolyRing(Zmod(5), ("a", "b"))
        for _ in range(50):
            gens = [
                random_mpoly(R2, rng, max_degree=3, nonzero=True)
                for _ in range(rng.randrange(1, 3))
            ]
            I = CIdeal.of(gens)
            f = random_mpoly(R2, rng, max_degree=2)
            bound = 2 * len(gens) * max(2, max(g.total_degree() for g in gens))
            assert radical_member(f, I) == radical_member_bruteforce(f, I, bound)
        monos = [
            MPoly(R2, {(e1, e2): 1})
            for e1 in range(5)
            for e2 in range(5)
            if e1 + e2 <= 4
        ]
        for _ in range(12):
            rank = rng.randrange(1, 3)
            cols = [
                tuple(random_mpoly(R2, rng, max_degree=2) for _ in range(rank))
                for _ in range(rng.randrange(1, 3))
            ]
            cols = [c for c in cols if any(not q.is_zero() for q in c)]
            if not cols:
                continue
            # membership in N: position over term, lower positions first
            in_module = submodule_member(
                cols,
                R2.coeffs,
                lambda t: (-t[0], GREVLEX.key(t[1])),
                lambda t: (t[0], GREVLEX.desc_key(t[1])),
            )
            v = tuple(random_mpoly(R2, rng, max_degree=1) for _ in range(rank))
            colon = CIdeal.of(colon_by_tag(cols, v, R2), ring=R2)
            for z in monos:
                assert colon.contains(z) == in_module(tuple(z * vi for vi in v))


def test_criterion_9_cli_contract(capsys):
    with criterion(9, "cli determinism and parser fuzz", 60):
        assert run(["corpus", "--json", "--seed", "0"]) == 0
        first = capsys.readouterr().out
        assert run(["corpus", "--json", "--seed", "0"]) == 0
        second = capsys.readouterr().out
        assert first == second and first
        rng = random.Random(424242)
        for _ in range(10_000):
            length = rng.randrange(0, 32)
            text = "".join(chr(rng.randrange(256)) for _ in range(length))
            try:
                parse_operator(text, 2, QQ)
            except ParseError:
                pass
