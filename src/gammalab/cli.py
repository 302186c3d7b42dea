"""Command-line entry point.

Subcommands: family, expand, oracle, stability, verify, conjecture.
Polynomials on the command line are quoted coefficient lists in the text
wire format ("c0 c1 c2 ...", rationals as "a" or "a/b").  With --json
every command prints canonical JSON (sorted keys, no whitespace
variance), so repeated runs are byte-identical.

Exit codes: 0 success (an "empty" check included), 1 a check failed,
2 usage error (including a malformed coefficient, a family index above
``families.FAMILY_BOUND`` and an input too large for the recursion limit).
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from . import families as fam
from . import oracles
from . import stability as st
from . import verify
from .expansions import (
    alt_gamma_expand,
    alt_semi_gamma_decompose,
    binomial_basis_expand,
    classify,
    gamma_expand,
    semi_gamma_decompose,
    symmetric_decomposition,
)
from .polynomial import BiPoly, UniPoly, parse_scalar

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

BASES = (
    "gamma",
    "alt-gamma",
    "binomial-plus",
    "binomial-minus",
    "semi-gamma",
    "alt-semi-gamma",
    "symmetric",
    "classify",
)


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(obj, as_json: bool, human: str) -> None:
    print(canonical_json(obj) if as_json else human)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gammalab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_family = sub.add_parser("family", help="print a named polynomial family member")
    p_family.add_argument("name", choices=[f.value for f in fam.FamilyId])
    p_family.add_argument("--n", type=int, required=True)
    p_family.add_argument("--json", action="store_true")

    p_expand = sub.add_parser("expand", help="expand a polynomial in a positivity basis")
    p_expand.add_argument("--basis", choices=BASES, required=True)
    p_expand.add_argument("--poly", required=True, help='coefficients, e.g. "1 0 4 0 1"')
    p_expand.add_argument("--center", type=int, default=None)
    p_expand.add_argument("--json", action="store_true")

    p_oracle = sub.add_parser("oracle", help="brute-force combinatorial distributions")
    oracle_sub = p_oracle.add_subparsers(dest="oracle_command", required=True)
    p_stats = oracle_sub.add_parser("stats", help="statistic distribution over S_n")
    p_stats.add_argument("--n", type=int, required=True)
    p_stats.add_argument("--weight", choices=oracles.STAT_WEIGHTS, required=True)
    p_stats.add_argument("--json", action="store_true")
    p_orbit = oracle_sub.add_parser("orbit", help="valley-hopping orbit of a permutation")
    p_orbit.add_argument("--perm", required=True, help='comma separated, e.g. "3,1,2"')
    p_orbit.add_argument("--json", action="store_true")

    p_stab = sub.add_parser("stability", help="Hurwitz classification of a polynomial")
    p_stab.add_argument("--poly", help="coefficient list")
    p_stab.add_argument(
        "--family", choices=["mn-combination"], help="use a built-in stable family"
    )
    p_stab.add_argument("--n", type=int, help="index for --family")
    p_stab.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="run registered identity checks")
    p_verify.add_argument("ident", help='an identity id or "all"')
    p_verify.add_argument("--bound", type=int, default=None)
    p_verify.add_argument("--json", action="store_true")

    p_conj = sub.add_parser("conjecture", help="bounded conjecture checkers")
    conj_sub = p_conj.add_subparsers(dest="conjecture_command", required=True)
    p_bm = conj_sub.add_parser("boros-moll")
    p_bm.add_argument("--max-m", type=int, default=20)
    p_bm.add_argument("--json", action="store_true")
    p_de = conj_sub.add_parser("des-exc")
    p_de.add_argument("--max-n", type=int, default=8)
    p_de.add_argument(
        "--s",
        action="append",
        default=None,
        help="sample value s >= 1 (rational, repeatable)",
    )
    p_de.add_argument("--json", action="store_true")

    return parser


def _emit_poly(poly: UniPoly | BiPoly, as_json: bool) -> int:
    _emit(poly.to_json(), as_json, str(poly))
    return EXIT_OK


def _cmd_family(args) -> int:
    return _emit_poly(fam.generate(args.name, args.n), args.json)


def _cmd_expand(args) -> int:
    f = UniPoly.from_text(args.poly)
    center = args.center
    if center is None:
        center = f.degree if not f.is_zero() else 0
    basis = args.basis
    if basis in ("gamma", "alt-gamma", "binomial-plus", "binomial-minus"):
        if basis.startswith("binomial"):
            exp = binomial_basis_expand(f, center, "+" if basis.endswith("plus") else "-")
        else:
            exp = (gamma_expand if basis == "gamma" else alt_gamma_expand)(f, center)
        human = f"n={center} sign={exp.sign} coeffs: " + " ".join(map(str, exp.coeffs))
        _emit(exp.to_json(), args.json, human)
    elif basis == "semi-gamma":
        dec = semi_gamma_decompose(f)
        payload = {
            "nu": dec.nu,
            "n": dec.center,
            "lambda": [str(c) for c in dec.lam],
            "f1": dec.f1.to_json(),
            "f2": dec.f2.to_json(),
        }
        human = (
            f"nu={dec.nu} n={dec.center} lambda: "
            + " ".join(map(str, dec.lam))
            + f" | f1: {dec.f1.to_text()} | f2: {dec.f2.to_text()}"
        )
        _emit(payload, args.json, human)
    elif basis == "alt-semi-gamma":
        dec = alt_semi_gamma_decompose(f)
        payload = {
            "nu": dec.nu,
            "n": dec.center,
            "xi": [str(c) for c in dec.xi],
            "zeta": [str(c) for c in dec.zeta],
        }
        human = (
            f"nu={dec.nu} n={dec.center} xi: "
            + " ".join(map(str, dec.xi))
            + " | zeta: "
            + " ".join(map(str, dec.zeta))
        )
        _emit(payload, args.json, human)
    elif basis == "symmetric":
        dec = symmetric_decomposition(f, center)
        payload = {"n": center, "a": dec.a.to_json(), "b": dec.b.to_json()}
        _emit(payload, args.json, f"a: {dec.a.to_text()} | b: {dec.b.to_text()}")
    else:  # classify
        profile = classify(f, center)
        payload = profile.to_json()
        human = " ".join(f"{k}={v}" for k, v in payload.items())
        _emit(payload, args.json, human)
    return EXIT_OK


def _cmd_oracle(args) -> int:
    if args.oracle_command == "stats":
        return _emit_poly(oracles.stat_polynomial(args.n, args.weight), args.json)
    perm = tuple(int(tok) for tok in args.perm.split(","))
    orbit = sorted(oracles.mfs_orbit(perm))
    des_poly = UniPoly.from_counts(Counter(oracles.perm_stats(sigma).des for sigma in orbit))
    payload = {
        "orbit": [list(sigma) for sigma in orbit],
        "des_poly": des_poly.to_json(),
    }
    human = "\n".join(",".join(map(str, sigma)) for sigma in orbit) + f"\ndes: {des_poly.to_text()}"
    _emit(payload, args.json, human)
    return EXIT_OK


def _cmd_stability(args) -> int:
    if (args.poly is None) == (args.family is None):
        print("stability: exactly one of --poly or --family is required", file=sys.stderr)
        return EXIT_USAGE
    if args.poly is not None:
        f = UniPoly.from_text(args.poly)
    else:
        if args.n is None:
            print("stability: --family requires --n", file=sys.stderr)
            return EXIT_USAGE
        f = fam.mn_combination(args.n)
    verdict = st.hurwitz_classify(f)
    _emit(verdict.to_json(), args.json, f"{verdict.status}: {verdict.certificate}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.ident == "all":
        bounds = None
        if args.bound is not None:
            bounds = {ident: args.bound for ident in verify.REGISTRY}
        reports = verify.run_all(bounds)
    else:
        try:
            reports = [verify.run_identity(args.ident, args.bound)]
        except verify.UnknownIdentity:
            print(f"verify: unknown identity {args.ident!r}", file=sys.stderr)
            return EXIT_USAGE
    if args.json:
        print(canonical_json([r.to_json() for r in reports]))
    else:
        for r in reports:
            print(f"{r.ident:<14} [{r.range_run}] {r.status}")
            if r.witness is not None:
                print(f"  witness: {canonical_json(r.witness)}")
    return EXIT_OK if verify.all_pass(reports) else EXIT_CHECK_FAILED


def _cmd_conjecture(args) -> int:
    if args.conjecture_command == "boros-moll":
        report = verify.conjecture_boros_moll(args.max_m)
    else:
        s_values = tuple(parse_scalar(s) for s in (args.s or ["1", "3/2", "2"]))
        report = verify.conjecture_des_exc(args.max_n, s_values)
    if args.json:
        print(canonical_json(report.to_json()))
    else:
        print(f"{report.ident} [{report.range_run}] {report.status}")
        if report.witness is not None:
            print(f"  witness: {canonical_json(report.witness)}")
    return EXIT_OK if report.status != verify.FAIL else EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        if args.command == "family":
            return _cmd_family(args)
        if args.command == "expand":
            return _cmd_expand(args)
        if args.command == "oracle":
            return _cmd_oracle(args)
        if args.command == "stability":
            return _cmd_stability(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "conjecture":
            return _cmd_conjecture(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"gammalab: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        print("gammalab: input too large (recursion limit exceeded)", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
