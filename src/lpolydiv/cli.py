"""Command-line front end.

Subcommands: count, lpoly, conjecture, and verify {morphism,lmw,involution,
as-image}.  Primary output goes to stdout in either human-readable table
form or line-delimited JSON records (--format records); diagnostics go to stderr.
Exit codes are stable for scripting: 0 means success/verified, 1 a
verification or consistency failure, 2 a usage error (bad parameters,
oversize field, unusable cache directory), 141 a stdout reader gone away.

``COMMANDS`` maps each command path to its handler and options; ``parse_args`` reads
argv by it as argparse did (``--opt value``, ``--opt=value``, unique prefixes, the last
repeat winning, ``-h`` at every level) without importing argparse, and ``_help`` prints it.

Commands call the library through its modules (``sympoly.verify_covering``),
which the package registers lazily, so each command runs only the modules it
uses: ``verify`` never runs ``curves``, ``lseries``, ``_kernels`` or ``cache``,
a GF(2) check not even ``gf``, and reading cached counts runs no ``_kernels``
and builds no field.  ``lpoly`` and ``conjecture`` count by ``curves.count_series``.
"""

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


def _emit(args, record: dict, table_line: str):
    if args.format == "records":
        print(json.dumps(record, separators=(",", ":")))
    else:
        print(table_line)


def _spec(args) -> "curves.CurveSpec":
    return curves.CurveSpec(args.family, args.k, args.p)


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
    lpoly = lseries.lpoly_from_counts(curves.count_series(spec, cache=_cache(args)))
    record = {"record": "lpoly", "family": spec.family, "k": spec.k, "p": spec.p}
    record.update(lseries.lpoly_to_record(lpoly))
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
                "record": "conjecture",
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
        {"record": "verify", "check": "morphism", "k": args.k, "l": args.l, "holds": holds},
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


REQUIRED = object()  # the default of an option that must be given

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


def _usage(path: str) -> str:
    tail = "{" + ",".join(_children(path)) + "} ..." if _children(path) else "[options]"
    return " ".join(filter(None, ("usage: lpolydiv", path, "[-h]", tail)))


def _help(path: str) -> str:
    rows = [("-h, --help", "show this help message and exit")]
    rows += [(name, COMMANDS[f"{path} {name}".lstrip()][1]) for name in _children(path)]
    for flag, kind, default, text in _options(path):
        value = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else flag[2:].replace("-", "_").upper()
        note = " (required)" if default is REQUIRED else "" if default is None else f" (default: {default})"
        rows.append((f"{flag} {value}", text + note))
    return "\n".join([_usage(path), "", COMMANDS[path][1], "", *(f"  {a:<25} {b}" for a, b in rows)])


def _fail(path: str, message: str):
    print(_usage(path), f"lpolydiv {path}".rstrip() + f": error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _read(path: str, token: str, flags) -> str | None:
    """As argparse reads `token`: the flag (or --help, also as -h) named in full or by unique
    prefix before any "=", else a value (None) if it is no option, "-", a negative number or
    text with a space, else "?", an unknown option."""
    name = token.partition("=")[0]
    name = "--help" if name == "-h" else name
    named = [flag for flag in (*flags, "--help") if name[:2] == "--" != name and flag.startswith(name)]
    if len(named) > 1 and name not in named:
        _fail(path, f"ambiguous option: {name} could match {', '.join(named)}")
    if named:
        return name if name in named else named[0]
    number = token[1:].replace(".", "", 1).isdecimal() and not token.endswith(".")
    return None if not token.startswith("-") or token == "-" or number or " " in token else "?"


def _exit_with_help(path: str, token: str):
    if "=" in token:
        _fail(path, f"argument -h/--help: ignored explicit argument {token.partition('=')[2]!r}")
    print(_help(path))
    raise SystemExit(0)


def parse_args(argv: list[str]) -> types.SimpleNamespace:
    """The namespace argparse gave for `argv`: a field per option, `command` (and `check`), `func`."""
    path, rest, values, strays = "", list(argv), {}, []
    while not COMMANDS[path][0]:
        field, names = ("command", "check")[len(path.split())], _children(path)
        if not rest:
            _fail(path, f"the following arguments are required: {field}")
        token = rest.pop(0)
        read = _read(path, token, ())
        if token in names:
            values[field], path = token, f"{path} {token}".lstrip()
        elif read is None or token == "--":
            _fail(path, f"argument {field}: invalid choice: {token!r} (choose from {', '.join(names)})")
        elif read == "--help":
            _exit_with_help(path, token)
        else:
            strays.append(token)
    kinds = {flag: kind for flag, kind, _, _ in _options(path)}
    given = {flag: default for flag, _, default, _ in _options(path)}
    # Nothing from "--" on is an option.  As argparse does, read every token before any
    # value, so that an ambiguous prefix is refused first.
    cut = rest.index("--") if "--" in rest else len(rest)
    named = [(_read(path, token, kinds), token) for token in rest[:cut]]
    while named:
        flag, token = named.pop(0)
        _, eq, value = token.partition("=")
        if flag == "--help":
            _exit_with_help(path, token)
        if flag in (None, "?"):
            strays.append(token)
            continue
        if not eq:
            if not named or named[0][0] is not None:
                _fail(path, f"argument {flag}: expected one argument")
            value = named.pop(0)[1]
        try:
            given[flag] = int(value) if kinds[flag] is int else value
            if kinds[flag] not in (int, str) and value not in kinds[flag]:
                raise ValueError
        except ValueError:
            _fail(path, f"argument {flag}: invalid {'int value' if kinds[flag] is int else 'choice'}: {value!r}")
    missing, strays = [flag for flag, value in given.items() if value is REQUIRED], strays + rest[cut:]
    if missing or strays:
        _fail(path, f"the following arguments are required: {', '.join(missing)}" if missing
              else f"unrecognized arguments: {' '.join(strays)}")
    values.update((flag[2:].replace("-", "_"), value) for flag, value in given.items())
    return types.SimpleNamespace(**values, func=COMMANDS[path][0])


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
