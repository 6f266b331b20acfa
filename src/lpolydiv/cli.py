"""Command-line front end.

Subcommands: count, lpoly, conjecture, and verify {morphism,lmw,involution,
as-image}.  Primary output goes to stdout in either human-readable table
form or line-delimited JSON records (--format records); diagnostics go to stderr.
Exit codes are stable for scripting: 0 means success/verified, 1 a
verification or consistency failure, 2 a usage error (bad parameters,
oversize field, unusable cache directory), 141 a stdout reader gone away.

Commands call the library through its modules (``sympoly.verify_covering``),
which the package registers lazily, so each command runs only the modules it
uses: ``verify`` never runs ``curves``, ``lseries``, ``_kernels`` or ``cache``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import cache, curves, gf, lseries, sympoly

CACHE_ENV = "LPOLYDIV_CACHE_DIR"


def _cache(args) -> cache.CountCache:
    # Created by the first store, so commands that count nothing leave no trace.
    cache_dir = (
        args.cache_dir or os.environ.get(CACHE_ENV) or os.path.expanduser("~/.cache/lpolydiv")
    )
    return cache.CountCache(os.path.join(cache_dir, "counts.jsonl"))


def _emit(args, record: dict, table_line: str):
    if args.format == "records":
        print(json.dumps(record, separators=(",", ":")))
    else:
        print(table_line)


def _spec(args) -> curves.CurveSpec:
    return curves.CurveSpec(args.family, args.k, args.p)


def _lpoly_for(spec: curves.CurveSpec, store: cache.CountCache) -> lseries.LPolynomial:
    # Every field limit lies far below 2^64, so count_series refuses a capped
    # genus before the true one (p^k for ckp) is formed.
    g = spec.genus_at_most(1 << 64)
    if g == 0:
        return lseries.LPolynomial(spec.p, 0, (1,))
    return lseries.lpoly_from_counts(curves.count_series(spec, g, cache=store))


def cmd_count(args) -> int:
    spec = _spec(args)
    if args.m < 1:
        raise ValueError("--m must be >= 1")
    n, provenance = curves.count_field(spec, args.m, cache=_cache(args))
    provenance = "fresh" if provenance == "counted" else provenance
    _emit(
        args,
        {
            "record": "count",
            "family": spec.family,
            "k": spec.k,
            "p": spec.p,
            "m": args.m,
            "n": n,
            "provenance": provenance,
        },
        f"{spec.label} / GF({spec.p}^{args.m}): N_{args.m} = {n} ({provenance})",
    )
    return 0


def cmd_lpoly(args) -> int:
    spec = _spec(args)
    lpoly = _lpoly_for(spec, _cache(args))
    record = {"record": "lpoly", "family": spec.family, "k": spec.k, "p": spec.p}
    record.update(lseries.lpoly_to_record(lpoly))
    _emit(args, record, f"L({spec.label}) = {lpoly}")
    return 0


def cmd_conjecture(args) -> int:
    if args.kmax < 2:
        raise ValueError("--kmax must be >= 2")
    # The genus grows with k, so this refuses an oversize run before its
    # first count, at the first k whose series needs too large a field.
    for k in range(1, args.kmax + 1):
        gf.make_field(args.p, curves.CurveSpec(args.family, k, args.p).genus)
    store = _cache(args)
    base = curves.CurveSpec(args.family, 1, args.p)
    l_base = _lpoly_for(base, store)
    all_ok = True
    for k in range(2, args.kmax + 1):
        spec = curves.CurveSpec(args.family, k, args.p)
        l_k = _lpoly_for(spec, store)
        result = lseries.divides(l_base, l_k)
        all_ok = all_ok and result.divides
        quotient = lseries.format_int_poly(result.quotient) if result.divides else "-"
        _emit(
            args,
            {
                "record": "conjecture",
                "family": args.family,
                "p": args.p,
                "k": k,
                "divides": result.divides,
                "quotient": [str(c) for c in result.quotient] if result.divides else None,
                "fail_index": result.fail_index,
            },
            f"k={k}: L({base.label}) divides L({spec.label}): "
            f"{'yes, quotient ' + quotient if result.divides else 'NO (fails at coefficient ' + str(result.fail_index) + ')'}",
        )
    if args.format == "table":
        print(f"all divisible: {'yes' if all_ok else 'no'}")
    return 0 if all_ok else 1


def cmd_verify_morphism(args) -> int:
    holds = sympoly.verify_covering(args.k, args.l)
    _emit(
        args,
        {"record": "verify", "check": "morphism", "k": args.k, "l": args.l, "holds": holds},
        f"covering identity (k={args.k}, l={args.l}): {'holds' if holds else 'FAILS'}",
    )
    return 0 if holds else 1


def cmd_verify_lmw(args) -> int:
    predicted = curves.lmw_formula(args.n, args.k, args.j)
    counted = curves.lmw_zero_count(args.n, args.k, args.j)
    agree = counted == predicted
    _emit(
        args,
        {
            "record": "verify",
            "check": "lmw",
            "n": args.n,
            "k": args.k,
            "j": args.j,
            "counted": counted,
            "formula": predicted,
            "agree": agree,
        },
        f"lmw(n={args.n}, k={args.k}, j={args.j}): counted={counted} formula={predicted} "
        f"{'agree' if agree else 'DISAGREE'}",
    )
    return 0 if agree else 1


def cmd_verify_involution(args) -> int:
    b = sympoly.involution_search(args.k)
    expected = args.k % 2 == 0
    found = b is not None
    _emit(
        args,
        {
            "record": "verify",
            "check": "involution",
            "k": args.k,
            "found": found,
            "b": sympoly.format_terms(b) if found else None,
        },
        f"involution search k={args.k}: {'B = ' + sympoly.format_terms(b) if found else 'none exists'}",
    )
    return 0 if found == expected else 1


def cmd_verify_as_image(args) -> int:
    if args.poly is not None:
        h = sympoly.parse_terms(args.poly, args.p)
    else:
        h = sympoly.tower_obstruction(args.p)
    decision = sympoly.artin_schreier_image(h)
    if decision.in_image:
        table = f"p={args.p}: in image, witness g = {sympoly.format_terms(decision.witness)}"
    else:
        table = f"p={args.p}: not an additive image (stuck at degree {decision.stuck_degree})"
    _emit(
        args,
        {
            "record": "verify",
            "check": "as-image",
            "p": args.p,
            "h": sympoly.format_terms(h),
            "in_image": decision.in_image,
            "witness": sympoly.format_terms(decision.witness) if decision.in_image else None,
            "stuck_degree": decision.stuck_degree,
        },
        table,
    )
    return 0


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility and ignored: every count runs in this process (must be >= 1)",
    )
    parser.add_argument("--cache-dir", default=None, help=f"count cache directory (default ${CACHE_ENV} or ~/.cache/lpolydiv)")
    parser.add_argument("--format", choices=("table", "records"), default="table", help="output mode")


def _add_family(parser: argparse.ArgumentParser):
    parser.add_argument("--family", required=True, choices=("ck", "ek", "ak", "ckp"))
    parser.add_argument("--k", required=True, type=int)
    parser.add_argument("--p", type=int, default=2, help="characteristic (odd prime for ckp)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpolydiv",
        description="Count points on Artin-Schreier curve families, rebuild "
        "L-polynomials, and verify divisibility and morphism identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="print N_m for one curve and extension")
    _add_family(p_count)
    p_count.add_argument("--m", required=True, type=int)
    _add_common(p_count)
    p_count.set_defaults(func=cmd_count)

    p_lpoly = sub.add_parser("lpoly", help="count through m = genus and print the L-polynomial")
    _add_family(p_lpoly)
    _add_common(p_lpoly)
    p_lpoly.set_defaults(func=cmd_lpoly)

    p_conj = sub.add_parser("conjecture", help="check L(k=1) | L(k) for k = 2..kmax")
    p_conj.add_argument("--family", required=True, choices=("ck", "ek", "ckp"))
    p_conj.add_argument("--kmax", required=True, type=int)
    p_conj.add_argument("--p", type=int, default=2)
    _add_common(p_conj)
    p_conj.set_defaults(func=cmd_conjecture)

    p_verify = sub.add_parser("verify", help="symbolic and enumerative identity checks")
    vsub = p_verify.add_subparsers(dest="check", required=True)

    v_mor = vsub.add_parser("morphism", help="tower covering identity for l | k")
    v_mor.add_argument("--k", required=True, type=int)
    v_mor.add_argument("--l", required=True, type=int)
    _add_common(v_mor)
    v_mor.set_defaults(func=cmd_verify_morphism)

    v_lmw = vsub.add_parser("lmw", help="trace-form zero count vs closed formula")
    v_lmw.add_argument("--n", required=True, type=int)
    v_lmw.add_argument("--k", required=True, type=int)
    v_lmw.add_argument("--j", type=int, default=0)
    _add_common(v_lmw)
    v_lmw.set_defaults(func=cmd_verify_lmw)

    v_inv = vsub.add_parser("involution", help="search translation involutions")
    v_inv.add_argument("--k", required=True, type=int)
    _add_common(v_inv)
    v_inv.set_defaults(func=cmd_verify_involution)

    v_asi = vsub.add_parser("as-image", help="decide h = g^p - g by leading-term peeling")
    v_asi.add_argument("--p", type=int, default=3)
    v_asi.add_argument("--poly", default=None, help="polynomial text (default: the degree-p tower obstruction)")
    _add_common(v_asi)
    v_asi.set_defaults(func=cmd_verify_as_image)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.workers < 1:
            raise ValueError("--workers must be >= 1")
        code = args.func(args)
        sys.stdout.flush()  # a block-buffered pipe meets a gone reader here, not at exit
        return code
    except (curves.CountIntegrityError, lseries.LSeriesError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader went away (`| head`): exit quietly, as a filter killed by
        # SIGPIPE does, with fd 1 discarding so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, OverflowError, OSError) as exc:
        # OSError: an unusable cache directory; its message names the path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
