"""The benchmark's workloads: inputs, pinned report fields and one pass each.

Every workload is a list of reports run through the public API.  The seed
permutes the input order and is passed to ``p_support`` as its sampling seed;
nothing else depends on it.  A pass runs every input once and checks each
report against fields pinned here (or, for the corpus, against the corpus
goldens through ``run_corpus``).  ``run_pass`` calls ``after_report`` with
each report's latency, outside the timed call, so that the caller can do
its own bookkeeping between reports.

Report counts are odd multiples of five (15, 35) where the inputs are chosen
here: with every input repeated once per pass, the p50 and p90 ranks of the
pooled report latencies then fall inside one input's group of repeats rather
than on the boundary between two inputs, which keeps those percentiles from
jumping with the number of passes in a run.
"""

import json
import os
import random
import time
from dataclasses import dataclass
from importlib import resources

import pweyl
import pweyl.corpus

# The seed-independent report fields that are pinned for every input.
PINNED_FIELDS = (
    "annihilator",
    "annihilator_status",
    "dimension",
    "coisotropic",
    "lagrangian",
    "conical",
    "generic_rank",
)

# exact-ladder: n = 1, exact route with the guard raised and rank off.  Each
# row is (generator, p, annihilator, dimension, coisotropic, lagrangian,
# conical); the status is "exact" and generic_rank is None throughout.  Pairs
# that take far longer than a pass should (x1^2*d1 - 1 at p = 11: ~119 s,
# x1*d1^2 + d1 - x1 at p = 11: ~17 s, d1^3 - x1 at p = 13: ~5 s) are left out.
EXACT_LADDER = (
    ("d1 - x1", 5, ("X1 - Xi1",), 1, True, True, False),
    ("d1 - x1", 7, ("X1 - Xi1",), 1, True, True, False),
    ("d1 - x1", 11, ("X1 - Xi1",), 1, True, True, False),
    ("d1^2 - x1", 5, ("Xi1^2 - X1",), 1, True, True, False),
    ("d1^3 - x1", 5, ("Xi1^3 - X1",), 1, True, True, False),
    ("d1^3 - x1", 7, ("Xi1^3 - X1",), 1, True, True, False),
    ("d1^2 - 1", 5, ("Xi1^2 - 1",), 1, True, True, False),
    ("d1^2 - 1", 7, ("Xi1^2 - 1",), 1, True, True, False),
    ("d1^2 - 1", 13, ("Xi1^2 - 1",), 1, True, True, False),
    ("x1*d1 - 1/3", 5, ("X1*Xi1",), 1, True, True, True),
    ("x1*d1 - 1/3", 7, ("X1*Xi1",), 1, True, True, True),
    ("x1*d1 - 1/3", 11, ("X1*Xi1",), 1, True, True, True),
    ("x1^2*d1 - 1", 5, ("X1^2*Xi1 - 1",), 1, True, True, False),
    ("x1*d1^2 + d1 - x1", 5, ("X1*Xi1^2 - X1",), 1, True, True, False),
    ("x1*d1^2 + d1 - x1", 7, ("X1*Xi1^2 - X1",), 1, True, True, False),
)

LADDER_OPTIONS = {"method": "exact", "guard": 200, "compute_rank": False}

# truncated-n2: n = 2 on the default auto route, where p^4 > 64 sends every
# input to the truncated kernel ladder and rank is reported as unavailable.
# Each row is (generators, p, annihilator, status, dimension, coisotropic,
# lagrangian, conical); generic_rank is None throughout.
TRUNCATED_N2 = (
    # holonomic pairs
    (("d1^2 - x1", "d2 - x2"), 3, ("X2 - Xi2", "Xi1^2 - X1 - 1"), "stabilized(2)", 2, True, True, False),
    (("d1^2 - x1", "d2 - x2"), 5, ("X2 - Xi2", "Xi1^2 - X1"), "stabilized(2)", 2, True, True, False),
    (("d1^2 - x1", "d2 - x2"), 7, ("X2 - Xi2", "Xi1^2 - X1"), "stabilized(2)", 2, True, True, False),
    (("d1^2 - x1", "d2 - x2"), 11, ("X2 - Xi2", "Xi1^2 - X1"), "stabilized(2)", 2, True, True, False),
    (("d1*d2 - 1", "x1*d1 - x2*d2"), 3, ("Xi1*Xi2 - 1", "X1*Xi1 - X2*Xi2", "X2*Xi2^2 - X1"), "stabilized(2)", 2, True, True, False),
    (("d1*d2 - 1", "x1*d1 - x2*d2"), 5, ("Xi1*Xi2 - 1", "X1*Xi1 - X2*Xi2", "X2*Xi2^2 - X1"), "stabilized(2)", 2, True, True, False),
    (("d1*d2 - 1", "x1*d1 - x2*d2"), 7, ("Xi1*Xi2 - 1", "X1*Xi1 - X2*Xi2", "X2*Xi2^2 - X1"), "stabilized(2)", 2, True, True, False),
    (("d1*d2 - 1", "x1*d1 - x2*d2"), 11, ("Xi1*Xi2 - 1", "X1*Xi1 - X2*Xi2", "X2*Xi2^2 - X1"), "stabilized(2)", 2, True, True, False),
    (("d1^3 - x1", "d2 - x2"), 3, ("X2 - Xi2", "Xi1^3 - X1"), "stabilized(3)", 2, True, True, False),
    (("d1^3 - x1", "d2 - x2"), 5, ("X2 - Xi2", "Xi1^3 - X1"), "stabilized(3)", 2, True, True, False),
    (("d1^3 - x1", "d2 - x2"), 7, ("X2 - Xi2", "Xi1^3 - X1"), "stabilized(3)", 2, True, True, False),
    (("d1^3 - x1", "d2 - x2"), 11, ("X2 - Xi2", "Xi1^3 - X1"), "stabilized(3)", 2, True, True, False),
    (("x1*d1 - 1/2", "d2 - 1"), 3, ("Xi2 - 1", "X1*Xi1"), "stabilized(2)", 2, True, True, False),
    (("x1*d1 - 1/2", "d2 - 1"), 5, ("Xi2 - 1", "X1*Xi1"), "stabilized(2)", 2, True, True, False),
    (("x1*d1 - 1/2", "d2 - 1"), 7, ("Xi2 - 1", "X1*Xi1"), "stabilized(2)", 2, True, True, False),
    (("x1*d1 - 1/2", "d2 - 1"), 11, ("Xi2 - 1", "X1*Xi1"), "stabilized(2)", 2, True, True, False),
    # single generators with 3-dimensional supports
    (("d1*d2 - x1",), 3, ("Xi1*Xi2 - X1",), "stabilized(2)", 3, True, False, False),
    (("d1*d2 - x1",), 5, ("Xi1*Xi2 - X1",), "stabilized(2)", 3, True, False, False),
    (("d1*d2 - x1",), 7, ("Xi1*Xi2 - X1",), "stabilized(2)", 3, True, False, False),
    (("d1*d2 - x1",), 11, ("Xi1*Xi2 - X1",), "stabilized(2)", 3, True, False, False),
    (("d1^2 + d2^2 - x1",), 3, ("Xi1^2 + Xi2^2 - X1 - 1",), "stabilized(2)", 3, True, False, False),
    (("d1^2 + d2^2 - x1",), 5, ("Xi1^2 + Xi2^2 - X1",), "stabilized(2)", 3, True, False, False),
    (("d1^2 + d2^2 - x1",), 7, ("Xi1^2 + Xi2^2 - X1",), "stabilized(2)", 3, True, False, False),
    (("d1^2 + d2^2 - x1",), 11, ("Xi1^2 + Xi2^2 - X1",), "stabilized(2)", 3, True, False, False),
    (("d1^3 - x2",), 3, ("Xi1^3 - X2",), "stabilized(3)", 3, True, False, False),
    (("d1^3 - x2",), 5, ("Xi1^3 - X2",), "stabilized(3)", 3, True, False, False),
    (("d1^3 - x2",), 7, ("Xi1^3 - X2",), "stabilized(3)", 3, True, False, False),
    (("d1^3 - x2",), 11, ("Xi1^3 - X2",), "stabilized(3)", 3, True, False, False),
    (("x1*d1 - x2*d2",), 3, ("X1*Xi1 - X2*Xi2",), "stabilized(2)", 3, True, False, True),
    (("x1*d1 - x2*d2",), 5, ("X1*Xi1 - X2*Xi2",), "stabilized(2)", 3, True, False, True),
    (("x1*d1 - x2*d2",), 7, ("X1*Xi1 - X2*Xi2",), "stabilized(2)", 3, True, False, True),
    # empty support
    (("d1^3 - x2", "d2^2 - x1"), 3, ("1",), "stabilized(1)", -1, True, False, True),
    (("d1^3 - x2", "d2^2 - x1"), 5, ("1",), "stabilized(1)", -1, True, False, True),
    (("d1^3 - x2", "d2^2 - x1"), 7, ("1",), "stabilized(1)", -1, True, False, True),
    (("d1^3 - x2", "d2^2 - x1"), 11, ("1",), "stabilized(1)", -1, True, False, True),
)


@dataclass(frozen=True)
class Case:
    """One report: a parsed presentation, a prime and the pinned fields."""

    spec: object
    prime: int
    expected: dict


@dataclass
class PassResult:
    """One pass: a report dict per input, a latency per report attempted, and
    one message per failed report."""

    reports: list
    latencies: list
    failures: list


def _case(n, generators, p, annihilator, status, dim, coisotropic, lagrangian, conical):
    gens = tuple(pweyl.parse_weyl(text, n, pweyl.QQ) for text in generators)
    spec = pweyl.DModuleSpec(n, gens, "; ".join(generators))
    expected = dict(
        zip(
            PINNED_FIELDS,
            (list(annihilator), status, dim, coisotropic, lagrangian, conical, None),
        )
    )
    return Case(spec, p, expected)


def _no_hook(latency):
    pass


def mismatches(expected, report_dict):
    return [
        f"{key}: expected {want!r}, got {report_dict[key]!r}"
        for key, want in expected.items()
        if report_dict[key] != want
    ]


class PSupportWorkload:
    """A fixed list of (presentation, prime) reports through ``p_support``."""

    def __init__(self, cases, options, seed):
        self.cases = list(cases)
        random.Random(seed).shuffle(self.cases)
        self.keys = [(case.spec.name, case.prime) for case in self.cases]
        self.options = options
        self.seed = seed

    def run_pass(self, after_report=_no_hook):
        clock = time.perf_counter
        reports, latencies, failures = [], [], []
        for case in self.cases:
            label = f"{case.spec.name} @ p={case.prime}"
            start = clock()
            try:
                report = pweyl.p_support(case.spec, case.prime, seed=self.seed, **self.options)
            except Exception as exc:  # a report that raises is a failed report
                report = exc
            latencies.append(clock() - start)
            after_report(latencies[-1])
            if isinstance(report, Exception):
                failures.append(f"{label}: raised {report!r}")
                reports.append(None)
                continue
            report = report.to_dict()
            reports.append(report)
            wrong = mismatches(case.expected, report)
            if wrong:
                failures.append(f"{label}: {'; '.join(wrong)}")
        return PassResult(reports, latencies, failures)


class CorpusWorkload:
    """The shipped corpus through ``run_corpus``, in a seed-permuted order.

    The permuted corpus is written to a file under ``out_dir`` so that
    ``run_corpus`` reads it exactly as ``pweyl corpus --run FILE`` would.
    Each row's latency is the time of its ``p_support`` call, taken by a shim
    on ``pweyl.corpus.p_support`` for the length of a pass.
    """

    def __init__(self, seed, out_dir):
        self.seed = seed
        raw = resources.files("pweyl.data").joinpath("corpus.json").read_text()
        doc = json.loads(raw)
        rng = random.Random(seed)
        rng.shuffle(doc["entries"])
        for entry in doc["entries"]:
            entry["primes"] = list(entry.get("primes", pweyl.corpus.DEFAULT_PRIMES))
            rng.shuffle(entry["primes"])
        os.makedirs(out_dir, exist_ok=True)
        self.path = os.path.join(out_dir, f"corpus-seed{seed}.json")
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        entries = pweyl.load_corpus(self.path)
        for entry in entries:
            entry.spec()
        self.keys = [(e.name, p) for e in entries for p in e.primes]

    def run_pass(self, after_report=_no_hook):
        clock = time.perf_counter
        latencies = []
        inner = pweyl.corpus.p_support

        def timed(*args, **kwargs):
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                latencies.append(clock() - start)
                after_report(latencies[-1])

        pweyl.corpus.p_support = timed
        try:
            runs = pweyl.corpus.run_corpus(self.path, seed=self.seed)
        except Exception as exc:  # aborts the pass; the raising row is a failure
            return PassResult([], latencies, [f"run_corpus raised {exc!r}"])
        finally:
            pweyl.corpus.p_support = inner
        failures = [f"{r.name} @ p={r.prime}: {'; '.join(r.mismatches)}" for r in runs if not r.ok]
        if [(r.name, r.prime) for r in runs] != self.keys:
            failures.append("run_corpus did not return one row per (entry, prime)")
        return PassResult([r.report for r in runs], latencies, failures)


def build(name, seed, out_dir):
    """Parse and load a workload: everything a run does before its first report."""
    if name == "corpus":
        return CorpusWorkload(seed, out_dir)
    if name == "exact-ladder":
        cases = [
            _case(1, (gen,), p, ann, "exact", dim, cois, lagr, con)
            for gen, p, ann, dim, cois, lagr, con in EXACT_LADDER
        ]
        return PSupportWorkload(cases, LADDER_OPTIONS, seed)
    if name == "truncated-n2":
        cases = [_case(2, *row) for row in TRUNCATED_N2]
        return PSupportWorkload(cases, {}, seed)
    raise ValueError(f"unknown workload {name!r}")
