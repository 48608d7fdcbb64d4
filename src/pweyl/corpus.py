"""The shipped corpus of cyclic modules and the golden-report runner.

A corpus file is JSON: {"schema": "pweyl-corpus-v1", "entries": [...]} where
each entry carries a name, the variable count n, generator expressions in
the surface syntax, the primes to run, and optional per-prime golden
sub-reports under "expected" (keys are primes in plain decimal, values
either {"bad_prime": true} or a subset of the report fields to compare).
"""

import json
from dataclasses import dataclass
from importlib import resources

from .errors import BadPrime, ParseError, PweylError
from .parser import parse_weyl
from .psupport import DModuleSpec, p_support
from .rings import QQ, is_prime

CORPUS_SCHEMA = "pweyl-corpus-v1"
DEFAULT_PRIMES = (2, 3, 5, 7)


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    n: int
    generators: tuple
    primes: tuple
    expected: dict
    operators: tuple  # the generators parsed over Q

    def spec(self):
        return DModuleSpec(self.n, self.operators, self.name)


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _entry(rec, where):
    """One corpus entry, its field types and values checked and its
    generators parsed; ``where`` names the file and the entry in the
    ``PweylError`` of a bad field and the ``ParseError`` of a bad generator."""
    if not isinstance(rec, dict):
        raise PweylError(f"{where} is not an object")
    where = f"{where} ({rec.get('name')!r})"

    def require(ok, rule, value):
        if not ok:
            raise PweylError(f"{where}: {rule}, got {value!r}")

    def prime(q):
        try:
            return is_prime(q)
        except ValueError as exc:  # past the bound where primality is decided
            raise PweylError(f"{where}: {exc}") from exc

    name, n, gens = rec.get("name"), rec.get("n"), rec.get("generators")
    primes, expected = rec.get("primes", list(DEFAULT_PRIMES)), rec.get("expected", {})
    require(isinstance(name, str), "name must be a string", name)
    require(_is_int(n) and n >= 1, "n must be a positive int", n)
    require(
        isinstance(gens, list) and gens and all(isinstance(g, str) for g in gens),
        "generators must be a nonempty list of strings",
        gens,
    )
    require(
        isinstance(primes, list) and all(_is_int(q) and prime(q) for q in primes),
        "primes must be a list of primes",
        primes,
    )
    require(
        isinstance(expected, dict)
        and all(
            k.isdecimal() and str(int(k)) == k and prime(int(k)) and isinstance(v, dict)
            for k, v in expected.items()
        ),
        "expected must map primes, written in plain decimal, to objects",
        expected,
    )
    for k, golden in expected.items():
        unknown = sorted(set(golden) - {"bad_prime", *_COMPARED_FIELDS})
        require(not unknown, f"expected[{k!r}] has fields that are never compared", unknown)
    operators = []
    for text in gens:
        try:
            operators.append(parse_weyl(text, n, QQ))
        except ParseError as exc:
            raise ParseError(f"{where}: generator {text!r}: {exc}") from exc
    require(not any(op.is_zero() for op in operators), "generators must be nonzero", gens)
    return CorpusEntry(
        name,
        n,
        tuple(gens),
        tuple(primes),
        {int(k): v for k, v in expected.items()},
        tuple(operators),
    )


def load_corpus(path=None):
    """The entries of the corpus file at ``path``, or of the shipped corpus.

    A file that cannot be read, is not JSON, or holds an entry with a field
    of the wrong type or value raises ``PweylError`` naming the file (and
    the entry); a generator that does not parse raises ``ParseError`` naming
    the file and the entry.  Every generator is parsed here, before any
    report runs.
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
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise PweylError(f"malformed corpus {source}: entries must be a list, got {entries!r}")
    return [_entry(rec, f"malformed corpus {source}: entry {i}") for i, rec in enumerate(entries)]


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
                got = p_support(spec, p, attempts=attempts, seed=seed).to_dict()
            except BadPrime:
                got = {"bad_prime": True}
                mism = () if expected.get("bad_prime") else ("unexpected bad prime",)
            else:
                if expected.get("bad_prime"):
                    mism = ("expected a bad prime, reduction succeeded",)
                else:
                    mism = tuple(_compare(expected, got))
            results.append(CorpusRun(entry.name, p, not mism, got, mism))
    return results
