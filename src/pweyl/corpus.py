"""The shipped corpus of cyclic modules and the golden-report runner.

A corpus file is JSON: {"schema": "pweyl-corpus-v1", "entries": [...]} where
each entry carries a name, the variable count n, generator expressions in
the surface syntax, the primes to run, and optional per-prime golden
sub-reports under "expected" (keys are primes as strings, values either
{"bad_prime": true} or a subset of the report fields to compare).
"""

import json
from dataclasses import dataclass
from importlib import resources

from .errors import BadPrime, PweylError
from .parser import parse_weyl
from .psupport import DModuleSpec, p_support
from .rings import QQ

CORPUS_SCHEMA = "pweyl-corpus-v1"
DEFAULT_PRIMES = (2, 3, 5, 7)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    n: int
    generators: tuple
    primes: tuple
    expected: dict

    def spec(self):
        gens = tuple(parse_weyl(text, self.n, QQ) for text in self.generators)
        return DModuleSpec(self.n, gens, self.name)


def load_corpus(path=None):
    """The entries of the corpus file at ``path``, or of the shipped corpus.

    A file that cannot be read, is not JSON or holds no well-formed entries
    raises ``PweylError`` naming the file.
    """
    source = "the shipped corpus" if path is None else repr(str(path))
    try:
        if path is None:
            raw = resources.files("pweyl.data").joinpath("corpus.json").read_text()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        doc = json.loads(raw)
    except (OSError, ValueError) as exc:
        raise PweylError(f"cannot read corpus {source}: {exc}") from exc
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != CORPUS_SCHEMA:
        raise PweylError(f"unknown corpus schema {schema!r} in {source}")
    try:
        return [
            CorpusEntry(
                name=rec["name"],
                n=rec["n"],
                generators=tuple(rec["generators"]),
                primes=tuple(rec.get("primes", DEFAULT_PRIMES)),
                expected={int(k): v for k, v in rec.get("expected", {}).items()},
            )
            for rec in doc["entries"]
        ]
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise PweylError(f"malformed corpus {source}: {type(exc).__name__}: {exc}") from exc


_COMPARED_FIELDS = (
    "annihilator",
    "annihilator_status",
    "dimension",
    "coisotropic",
    "lagrangian",
    "conical",
    "generic_rank",
)


@dataclass(frozen=True)
class CorpusRun:
    name: str
    prime: int
    ok: bool
    report: dict
    mismatches: tuple


def _compare(expected, report_dict):
    mism = []
    for key in _COMPARED_FIELDS:
        if key not in expected:
            continue
        got = report_dict[key]
        want = expected[key]
        if got != want:
            mism.append(f"{key}: expected {want!r}, got {got!r}")
    return mism


def run_corpus(path=None, primes=None, seed=0, attempts=5):
    """Run every entry at its primes and compare against the goldens."""
    results = []
    for entry in load_corpus(path):
        spec = entry.spec()
        for p in primes if primes is not None else entry.primes:
            expected = entry.expected.get(p, {})
            try:
                report = p_support(spec, p, attempts=attempts, seed=seed)
            except BadPrime:
                ok = bool(expected.get("bad_prime"))
                mism = () if ok else ("unexpected bad prime",)
                results.append(CorpusRun(entry.name, p, ok, {"bad_prime": True}, mism))
                continue
            if expected.get("bad_prime"):
                results.append(
                    CorpusRun(
                        entry.name,
                        p,
                        False,
                        report.to_dict(),
                        ("expected a bad prime, reduction succeeded",),
                    )
                )
                continue
            mism = tuple(_compare(expected, report.to_dict()))
            results.append(CorpusRun(entry.name, p, not mism, report.to_dict(), mism))
    return results
