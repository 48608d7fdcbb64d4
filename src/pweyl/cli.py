"""Command-line interface: psupport, bracket, charvar, center-check, corpus.

Exit codes: 0 success, 1 computation-level failure (bad prime, zero
generator, corpus mismatch, unreadable corpus file), 2 usage or parse
error.  Machine-readable output is requested with --json; randomized steps
take --seed, falling back to the PWEYL_SEED environment variable, then 0;
a PWEYL_SEED that is not an integer is a usage error.
"""

import argparse
import json
import os
import sys

from .corpus import run_corpus
from .errors import ParseError, PweylError
from .parser import parse_twisted, parse_weyl
from .poisson import canonical_bracket, deformation_bracket
from .psupport import DModuleSpec, characteristic_variety, p_support
from .rings import QQ, Zmod, is_prime
from .weyl import is_central


def _prime(text):
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    try:
        prime = is_prime(p)
    except ValueError as exc:  # past the bound where primality is decided
        raise argparse.ArgumentTypeError(str(exc))
    if not prime:
        raise argparse.ArgumentTypeError(f"{p} is not prime")
    return p


def _primes(text):
    return tuple(_prime(tok) for tok in text.split(","))


def _positive(text):
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if n < 1:
        raise argparse.ArgumentTypeError("need a positive count")
    return n


def _emit_json(obj):
    print(json.dumps(obj, indent=2))


def _cmd_psupport(args):
    gens = tuple(parse_weyl(text, args.vars, QQ) for text in args.exprs)
    spec = DModuleSpec(args.vars, gens, args.name)
    report = p_support(
        spec,
        args.prime,
        attempts=args.attempts,
        seed=args.seed,
        compute_rank=not args.no_rank,
        method=args.method,
    )
    if args.json:
        _emit_json(report.to_dict())
        return 0
    d = report.to_dict()
    for key, val in d.items():
        if key in ("schema", "coisotropy_witness", "rank_samples", "notes"):
            continue
        if key == "annihilator":
            val = ", ".join(val) if val else "(0)"
        print(f"{key}: {val}")
    if d["coisotropy_witness"]:
        w = d["coisotropy_witness"]
        print(f"coisotropy witness: {{{w['pair'][0]}, {w['pair'][1]}}} = {w['bracket']}")
    for note in d["notes"]:
        print(f"note: {note}")
    return 0


def _cmd_bracket(args):
    F = Zmod(args.prime)
    f = parse_twisted(args.expr1, args.vars, F)
    g = parse_twisted(args.expr2, args.vars, F)
    if args.canonical:
        result = canonical_bracket(f, g)
    else:
        result = deformation_bracket(f, g)
    print(result.format(symmetric=False))
    return 0


def _cmd_charvar(args):
    gens = tuple(parse_weyl(text, args.vars, QQ) for text in args.exprs)
    spec = DModuleSpec(args.vars, gens)
    cv = characteristic_variety(spec)
    basis = [str(g) for g in cv.ideal.groebner_basis()]
    if args.json:
        _emit_json(
            {
                "schema": "pweyl-charvar-v1",
                "n": args.vars,
                "symbol_ideal": basis,
                "dimension": cv.dimension,
                "holonomic": cv.holonomic,
            }
        )
        return 0
    print(f"symbol ideal: {', '.join(basis) if basis else '(0)'}")
    print(f"dimension: {cv.dimension}")
    print(f"holonomic: {cv.holonomic}")
    return 0


def _cmd_center_check(args):
    op = parse_weyl(args.expr, args.vars, Zmod(args.prime))
    res = is_central(op)
    if res.is_central:
        print("central: true")
    else:
        print("central: false")
        print(f"witness: [op, {res.generator}] = {res.witness}")
    return 0


def _cmd_corpus(args):
    results = run_corpus(args.run, primes=args.primes, seed=args.seed, attempts=args.attempts)
    if args.json:
        _emit_json(
            [
                {
                    "name": r.name,
                    "prime": r.prime,
                    "ok": r.ok,
                    "mismatches": list(r.mismatches),
                    "report": r.report,
                }
                for r in results
            ]
        )
    else:
        for r in results:
            mark = "ok " if r.ok else "FAIL"
            print(f"{mark} {r.name} p={r.prime}")
            for m in r.mismatches:
                print(f"     {m}")
        bad = sum(1 for r in results if not r.ok)
        print(f"{len(results) - bad}/{len(results)} passed")
    return 0 if all(r.ok for r in results) else 1


def build_parser():
    top = argparse.ArgumentParser(
        prog="pweyl",
        description="p-supports of cyclic modules over the Weyl algebra mod p",
    )
    sub = top.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("psupport", help="full support report for one prime")
    ps.add_argument("--prime", "-p", type=_prime, required=True)
    ps.add_argument("--vars", "-n", type=_positive, required=True)
    ps.add_argument("--json", action="store_true")
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--attempts", type=_positive, default=5)
    ps.add_argument("--no-rank", action="store_true")
    ps.add_argument("--method", choices=("auto", "exact", "truncated"), default="auto")
    ps.add_argument("--name", default=None)
    ps.add_argument("exprs", nargs="+", metavar="EXPR")
    ps.set_defaults(func=_cmd_psupport)

    br = sub.add_parser("bracket", help="bracket of two twisted polynomials")
    br.add_argument("--prime", "-p", type=_prime, required=True)
    br.add_argument("--vars", "-n", type=_positive, required=True)
    br.add_argument("--canonical", action="store_true", help="canonical instead of deformation bracket")
    br.add_argument("expr1", metavar="EXPR1")
    br.add_argument("expr2", metavar="EXPR2")
    br.set_defaults(func=_cmd_bracket)

    cv = sub.add_parser("charvar", help="characteristic-zero symbol ideal")
    cv.add_argument("--vars", "-n", type=_positive, required=True)
    cv.add_argument("--json", action="store_true")
    cv.add_argument("exprs", nargs="+", metavar="EXPR")
    cv.set_defaults(func=_cmd_charvar)

    cc = sub.add_parser("center-check", help="centrality test with witness")
    cc.add_argument("--prime", "-p", type=_prime, required=True)
    cc.add_argument("--vars", "-n", type=_positive, required=True)
    cc.add_argument("expr", metavar="EXPR")
    cc.set_defaults(func=_cmd_center_check)

    co = sub.add_parser("corpus", help="run the corpus against its golden reports")
    co.add_argument("--run", metavar="PATH", default=None, help="corpus file (default: shipped)")
    co.add_argument(
        "--primes", type=_primes, default=None, help="comma-separated primes overriding the entries"
    )
    co.add_argument("--seed", type=int, default=None)
    co.add_argument("--attempts", type=_positive, default=5)
    co.add_argument("--json", action="store_true")
    co.set_defaults(func=_cmd_corpus)

    return top


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    if "seed" in vars(args) and args.seed is None:
        env = os.environ.get("PWEYL_SEED") or "0"
        try:
            args.seed = int(env)
        except ValueError:
            print(f"usage error: PWEYL_SEED={env!r} is not an integer", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except PweylError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
