"""Command-line front end.

Subcommands: count, lpoly, conjecture, and verify {morphism,lmw,involution,as-image}.
Primary output goes to stdout in either human-readable table form or line-delimited
JSON records (--format records), each of which ``_emit`` begins with "record", the
command's name, and under verify next with "check", the check's name; diagnostics go to stderr.
Exit codes are stable for scripting: 0 means success/verified, 1 a
verification or consistency failure, 2 a usage error (bad parameters,
oversize field, unusable cache directory), 141 a stdout reader gone away.

``COMMANDS`` maps each command path to its handler and options.  ``parse_args`` reads a
plain argv (exact names, each option as ``--opt value`` or ``--opt=value``) by it, and
hands any other to argparse built from it: help and usage errors load argparse, plain
commands do not.

Commands call the library through its modules (``sympoly.verify_covering``),
which the package registers lazily, so each command runs only the modules it
uses: ``verify`` never runs ``curves``, ``lseries``, ``_kernels`` or ``cache``,
a GF(2) check not even ``gf``, and reading cached counts runs no ``_kernels``
and builds no field.  ``lpoly`` and ``conjecture`` count by ``curves.count_series``.
"""

import functools
import json
import os
import sys
import types

from . import cache, curves, lseries, sympoly

CACHE_ENV = "LPOLYDIV_CACHE_DIR"


def _cache(args) -> "cache.CountCache":
    # Created by the first store, so commands that count nothing leave no trace.
    if args.cache_dir == "":
        raise ValueError("--cache-dir must not be empty")
    cache_dir = (
        args.cache_dir or os.environ.get(CACHE_ENV) or os.path.expanduser("~/.cache/lpolydiv")
    )
    return cache.CountCache(os.path.join(cache_dir, "counts.jsonl"))


def _emit(args, fields: dict, table_line: str):
    if args.format == "records":
        head = {"record": args.command, **({"check": args.check} if args.command == "verify" else {})}
        print(json.dumps({**head, **fields}, separators=(",", ":")))
    else:
        print(table_line)


def cmd_count(args) -> int:
    spec = curves.CurveSpec(args.family, args.k, args.p)
    n, provenance = curves.count_field(spec, args.m, cache=_cache(args))
    record = {"family": spec.family, "k": spec.k, "p": spec.p, "m": args.m, "n": n, "provenance": provenance}
    _emit(args, record, f"{spec.label} / GF({spec.p}^{args.m}): N_{args.m} = {n} ({provenance})")
    return 0


def cmd_lpoly(args) -> int:
    spec = curves.CurveSpec(args.family, args.k, args.p)
    lpoly = lseries.lpoly_from_counts(curves.count_series(spec, cache=_cache(args)))
    record = {"family": spec.family, "k": spec.k, "p": spec.p, **lseries.lpoly_to_record(lpoly)}
    _emit(args, record, f"L({spec.label}) = {lpoly}")
    return 0


def cmd_conjecture(args) -> int:
    if args.kmax < 2:
        raise ValueError("--kmax must be >= 2")
    # The genus never decreases in k, so the series of kmax is the longest, and
    # one check of its length refuses an oversize run before its first count.
    curves.series_length(curves.CurveSpec(args.family, args.kmax, args.p))
    store = _cache(args)
    base = curves.CurveSpec(args.family, 1, args.p)
    l_base = lseries.lpoly_from_counts(curves.count_series(base, cache=store))
    all_ok = True
    for k in range(2, args.kmax + 1):
        spec = curves.CurveSpec(args.family, k, args.p)
        l_k = lseries.lpoly_from_counts(curves.count_series(spec, cache=store))
        result = lseries.divides(l_base, l_k)
        all_ok = all_ok and result.divides
        quotient = lseries.format_int_poly(result.quotient) if result.divides else "-"
        _emit(
            args,
            {
                "family": args.family,
                "p": args.p,
                "k": k,
                "divides": result.divides,
                "quotient": [lseries.int_to_decimal(c) for c in result.quotient] if result.divides else None,
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
        {"k": args.k, "l": args.l, "holds": holds},
        f"covering identity (k={args.k}, l={args.l}): {'holds' if holds else 'FAILS'}",
    )
    return 0 if holds else 1


def cmd_verify_lmw(args) -> int:
    counted = curves.lmw_zero_count(args.n, args.k, args.j)  # refuses an oversize field first
    predicted = curves.lmw_formula(args.n, args.k, args.j)
    agree = counted == predicted
    _emit(
        args,
        {
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
            "p": args.p,
            "h": sympoly.format_terms(h),
            "in_image": decision.in_image,
            "witness": sympoly.format_terms(decision.witness) if decision.in_image else None,
            "stuck_degree": decision.stuck_degree,
        },
        table,
    )
    return 0


REQUIRED = object()  # the default of an option that must be given


def _int(value: str) -> int:
    """An int option's value: an optional sign, then ASCII digits (int() takes "١", "1_0", " 3")."""
    digits = value[1:] if value[:1] in ("+", "-") else value
    if not (digits.isascii() and digits.isdecimal()):
        raise ValueError(f"invalid int value: {value!r}")
    return int(value)


_int.__name__ = "int"  # argparse names the type in its usage error: "invalid int value: 'x'"

# An option is (flag, type, default, help), its type int, str or a tuple of choices.
_COMMON = (
    ("--workers", int, 1, "accepted and ignored: every count runs in this process (must be >= 1)"),
    ("--cache-dir", str, None, f"count cache directory (default ${CACHE_ENV} or ~/.cache/lpolydiv)"),
    ("--format", ("table", "records"), "table", "output mode"),
)
_P = ("--p", int, 2, "characteristic (odd prime for ckp)")
_CURVE = (("--family", ("ck", "ek", "ak", "ckp"), REQUIRED, "curve family"), ("--k", int, REQUIRED, "index"), _P)

# Command path -> (handler, summary, options besides _COMMON and -h); a group has no handler.
COMMANDS = {
    "": (None, "Count points on Artin-Schreier curve families, rebuild L-polynomials, "
         "and verify divisibility and morphism identities.", ()),
    "count": (cmd_count, "print N_m for one curve and extension", (*_CURVE, ("--m", int, REQUIRED, "degree"))),
    "lpoly": (cmd_lpoly, "count through m = genus and print the L-polynomial", _CURVE),
    "conjecture": (cmd_conjecture, "check L(k=1) | L(k) for k = 2..kmax", (
        ("--family", ("ck", "ek", "ckp"), REQUIRED, "curve family"), ("--kmax", int, REQUIRED, "largest k"), _P)),
    "verify": (None, "symbolic and enumerative identity checks", ()),
    "verify morphism": (cmd_verify_morphism, "tower covering identity for l | k", (
        ("--k", int, REQUIRED, "level of the cover"), ("--l", int, REQUIRED, "level of the base, dividing k"))),
    "verify lmw": (cmd_verify_lmw, "trace-form zero count vs closed formula", (
        ("--n", int, REQUIRED, "odd degree"), ("--k", int, REQUIRED, "twist"), ("--j", int, 0, "twist below k"))),
    "verify involution": (cmd_verify_involution, "search translation involutions", (("--k", int, REQUIRED, "level"),)),
    "verify as-image": (cmd_verify_as_image, "decide h = g^p - g by leading-term peeling", (
        ("--p", int, 3, "characteristic"),
        ("--poly", str, None, "polynomial text (default: the degree-p tower obstruction)"))),
}


def _children(path: str) -> list[str]:
    return [key.rpartition(" ")[2] for key in COMMANDS if key and key.rpartition(" ")[0] == path]


def _options(path: str) -> tuple:
    return (*COMMANDS[path][2], *_COMMON) if COMMANDS[path][0] else ()


def _plain(argv: list[str]) -> types.SimpleNamespace | None:
    """The namespace of a plain argv, else None: exact command names, then exact flags of
    that command, each with "=value" or the next token if that does not start with "-"."""
    path, rest, values = "", list(argv), {}
    while not COMMANDS[path][0]:
        if not rest or rest[0] not in _children(path):
            return None
        values[("command", "check")[len(path.split())]] = rest[0]
        path = f"{path} {rest.pop(0)}".lstrip()
    kinds = {flag: kind for flag, kind, _, _ in _options(path)}
    given = {flag: default for flag, _, default, _ in _options(path)}
    while rest:
        flag, eq, value = rest.pop(0).partition("=")
        value, kind = value if eq else rest.pop(0) if rest else None, kinds.get(flag, ())
        if value is None or not eq and value.startswith("-") or kind not in (int, str) and value not in kind:
            return None
        try:
            given[flag] = _int(value) if kind is int else value
        except ValueError:
            return None
    if REQUIRED in given.values():
        return None
    values.update((flag[2:].replace("-", "_"), value) for flag, value in given.items())
    return types.SimpleNamespace(**values, func=COMMANDS[path][0])


@functools.cache  # built once per process, however many argv a caller parses
def _argparse():
    """The argparse parser of every command in COMMANDS: the one user of argparse."""
    import argparse

    class Parser(argparse.ArgumentParser):  # "--opt=--" gives "--", as argparse 3.13 reads it
        def _get_values(self, action, strings):  # 3.10-3.12 strip that "--" and give []
            values = super()._get_values(action, list(strings))
            return super()._get_values(action, ["--", "--"]) if strings == ["--"] and values == [] else values

    def build(parser, path):
        parser.description, parser.formatter_class = COMMANDS[path][1], argparse.RawDescriptionHelpFormatter
        if not COMMANDS[path][0]:
            group = parser.add_subparsers(dest=("command", "check")[len(path.split())], required=True)
            for name in _children(path):
                child = f"{path} {name}".lstrip()
                build(group.add_parser(name, help=COMMANDS[child][1]), child)
            return parser
        parser.usage = "%(prog)s [-h] [options]"
        for flag, kind, default, text in _options(path):
            note = " (required)" if default is REQUIRED else "" if default is None else f" (default: {default})"
            parser.add_argument(
                flag, type=_int if kind is int else None, choices=kind if isinstance(kind, tuple) else None,
                help=text + note, **({"required": True} if default is REQUIRED else {"default": default}),
            )
        parser.set_defaults(func=COMMANDS[path][0])
        return parser

    return build(Parser(prog="lpolydiv"), "")


def parse_args(argv: list[str]):
    """The namespace argparse gives for `argv` (a field per option, `command`, `check`, `func`):
    read by `_plain`, else by argparse, which alone prints help (exit 0) or a usage error (exit 2)."""
    return _plain(argv) or _argparse().parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
