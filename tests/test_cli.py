import contextlib
import io
import json
import os
import random
import shlex
import subprocess
import sys

import pytest
from helpers import build_parser

from lpolydiv import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_table_and_cache(tmp_path, capsys):
    args = ("count", "--family", "ck", "--k", "1", "--m", "3", "--cache-dir", str(tmp_path))
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out == "C_1 / GF(2^3): N_3 = 5 (fresh)\n"
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out == "C_1 / GF(2^3): N_3 = 5 (cached)\n"


def test_count_records(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "count", "--family", "ek", "--k", "1", "--m", "1",
        "--cache-dir", str(tmp_path), "--format", "records",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec == {
        "record": "count", "family": "ek", "k": 1, "p": 2, "m": 1,
        "n": 4, "provenance": "fresh",
    }


def test_lpoly_table(tmp_path, capsys):
    code, out, _ = run(
        capsys, "lpoly", "--family", "ck", "--k", "1", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert out == "L(C_1) = 2t^2+2t+1\n"


def test_lpoly_records_and_warm_cache_determinism(tmp_path, capsys):
    args = (
        "lpoly", "--family", "ck", "--k", "2",
        "--cache-dir", str(tmp_path), "--format", "records",
    )
    run(capsys, *args)  # cold run fills the cache
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2  # warm reruns are byte-identical
    rec = json.loads(out1)
    assert rec["coeffs"] == ["1", "2", "4", "4", "4"]
    assert rec["g"] == 2 and rec["q"] == 2


def test_lpoly_odd_characteristic(tmp_path, capsys):
    # degree 6 with a_0 = 1 and a_6 = 27; exact values come from the counting
    # pipeline, which the round-trip and zeta-oracle tests validate
    code, out, _ = run(
        capsys, "lpoly", "--family", "ckp", "--k", "1", "--p", "3",
        "--cache-dir", str(tmp_path), "--format", "records",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["q"] == 3 and rec["g"] == 3
    assert rec["coeffs"] == ["1", "3", "6", "9", "18", "27", "27"]


def test_lpoly_genus_zero(tmp_path, capsys):
    code, out, _ = run(
        capsys, "lpoly", "--family", "ak", "--k", "3", "--cache-dir", str(tmp_path)
    )
    assert code == 0
    assert out == "L(A_3) = 1\n"


def test_conjecture_ck(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "conjecture", "--family", "ck", "--kmax", "3", "--cache-dir", str(tmp_path),
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k=2: L(C_1) divides L(C_2): yes, quotient 2t^2+1"
    assert lines[-1] == "all divisible: yes"


def test_conjecture_records(tmp_path, capsys):
    code, out, _ = run(
        capsys,
        "conjecture", "--family", "ckp", "--p", "3", "--kmax", "2",
        "--cache-dir", str(tmp_path), "--format", "records",
    )
    assert code == 0
    rec = json.loads(out.splitlines()[0])
    assert rec["record"] == "conjecture" and rec["k"] == 2
    assert rec["divides"] is True


def test_verify_morphism(capsys):
    code, out, _ = run(capsys, "verify", "morphism", "--k", "6", "--l", "2")
    assert code == 0
    assert "holds" in out


def test_verify_lmw(capsys):
    code, out, _ = run(capsys, "verify", "lmw", "--n", "7", "--k", "1")
    assert code == 0
    assert "counted=72 formula=72 agree" in out


def test_verify_involution(capsys):
    code, out, _ = run(capsys, "verify", "involution", "--k", "4")
    assert code == 0
    assert "B = x^8+x^4+x^2+x" in out
    code, out, _ = run(capsys, "verify", "involution", "--k", "5")
    assert code == 0  # none existing for odd k is the expected verdict
    assert "none exists" in out


def test_verify_as_image(capsys):
    code, out, _ = run(capsys, "verify", "as-image", "--p", "3")
    assert code == 0
    assert "stuck at degree 4" in out
    code, out, _ = run(capsys, "verify", "as-image", "--p", "2")
    assert code == 0
    assert "witness g = x^3+x^2" in out
    code, out, _ = run(
        capsys, "verify", "as-image", "--p", "2", "--poly", "x^6+x^3+x^2+x"
    )
    assert code == 0
    assert "witness g = x^3+x" in out


def test_verify_as_image_records(capsys):
    code, out, _ = run(capsys, "verify", "as-image", "--p", "5", "--format", "records")
    assert code == 0
    rec = json.loads(out)
    assert rec["in_image"] is False and rec["stuck_degree"] == 6


def test_usage_errors(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["count", "--family", "zz", "--k", "1", "--m", "1"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, _, err = run(
        capsys, "count", "--family", "ckp", "--k", "1", "--p", "4", "--m", "1",
        "--cache-dir", str(tmp_path),
    )
    assert code == 2 and "error:" in err
    code, _, err = run(
        capsys, "count", "--family", "ck", "--k", "1", "--m", "0",
        "--cache-dir", str(tmp_path),
    )
    assert code == 2
    code, _, err = run(
        capsys, "verify", "lmw", "--n", "3", "--k", "3",  # hypothesis gcd(3,3) != 1
    )
    assert code == 2 and "hypothesis" in err
    code, _, err = run(capsys, "conjecture", "--family", "ck", "--kmax", "1", "--cache-dir", str(tmp_path))
    assert code == 2 and "--kmax must be >= 2" in err
    code, _, err = run(capsys, "verify", "morphism", "--k", "64", "--l", "1")
    assert code == 2 and "64-bit exponent bound" in err


VALID_ARGV = [
    "count --family ck --k 3 --m 5",
    "count --family=ckp --p=3 --k=1 --m=4 --workers 2 --cache-dir /tmp/c --format records",
    "count --fam ek --k 2 --m 5 --m 6 --form=records",
    "count --m 1 --k -1 --family ak",
    "lpoly --family ek --k 5",
    "lpoly --family ck --k 1 --k 2 --cache /x --for table",
    "conjecture --family ck --kmax 3",
    "conjecture --family=ckp --p 3 --km 2 --workers=-1",
    "verify morphism --k 6 --l 2",
    "verify morphism --l=-2 --k 62 --format records",
    "verify lmw --n 7 --k 1",
    "verify lmw --n 25 --k 1 --j 0 --j 3",
    "verify involution --k 4",
    "verify involution --k -1 --w 3",
    "verify involution --k +4 --workers=+1",
    "verify as-image",
    "verify as-image --p 2 --poly x^6+x^3+x^2+x",
    "verify as-image --po=x^2 --p 5 --c ''",
    "verify as-image '--poly=x^6 + x^3 + x' --p 2",
    "verify as-image '--po=x^2 + 1' '--cache-dir=/a b'",
]


@pytest.mark.parametrize("argv", VALID_ARGV)
def test_parser_reads_argv_as_argparse_did(argv):
    argv = shlex.split(argv)
    assert vars(cli.parse_args(argv)) == vars(build_parser().parse_args(argv))


def _outcome(parse, argv):
    """The namespace `parse` gives for argv, or its exit code with a usage error's last line."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as exc:
            return exc.code, err.getvalue().splitlines()[-1] if exc.code == 2 else None


@pytest.mark.filterwarnings("error")
def test_parser_agrees_with_argparse_on_random_argv():
    # Every command and flag, unique and ambiguous prefixes of them, valid and invalid values,
    # "-h", "--" and negative numbers, drawn in any order after a random command path.
    words = [
        *{word for path in cli.COMMANDS for word in path.split()},
        *{flag for _, _, options in cli.COMMANDS.values() for flag, *_ in (*options, *cli._COMMON)},
        "--f", "--fam", "--km", "--po", "--w", "--c", "--form", "--he", "--help", "-h", "--zz",
        "--k=3", "--family=ck", "--m=", "--format=records", "--help=x", "--", "-", "-x",
        "ck", "ek", "ak", "ckp", "zz", "table", "records", "1", "2", "-1", "-1.5", "x", "x^2+1", "a b", "--poly=a b",
    ]
    paths = [[], *(path.split() for path, (handler, _, _) in cli.COMMANDS.items() if handler)]
    rng, oracle = random.Random(20261018), build_parser()
    for _ in range(2000):
        argv = rng.choice(paths) + [rng.choice(words) for _ in range(rng.randint(0, 9))]
        assert _outcome(cli.parse_args, argv) == _outcome(oracle.parse_args, argv), argv


USAGE_ERRORS = {
    "no command": [],
    "verify alone": ["verify"],
    "unknown command": ["counts", "--family", "ck", "--k", "1", "--m", "1"],
    "unknown check": ["verify", "morph", "--k", "6", "--l", "2"],
    "unknown option": ["count", "--family", "ck", "--k", "1", "--m", "1", "--mm", "2"],
    "unknown option before the command": ["--mm", "verify", "involution", "--k", "4"],
    "ambiguous prefix": ["count", "--f", "ck", "--k", "1", "--m", "1"],
    "missing value": ["count", "--family", "ck", "--k", "1", "--m"],
    "option as value": ["count", "--family", "ck", "--k", "--m", "1"],
    "non-int": ["count", "--family", "ck", "--k", "x", "--m", "1"],
    "bad choice": ["count", "--family", "zz", "--k", "1", "--m", "1"],
    "bad format": ["verify", "involution", "--k", "4", "--format=json"],
    "missing required": ["count", "--family", "ck", "--k", "1"],
    "stray positional": ["verify", "involution", "--k", "4", "extra"],
    # An int option is an optional sign, then ASCII digits: none of the other values int() takes.
    "arabic-indic digits": ["count", "--family", "ck", "--k", "\u0661", "--m", "\u0663"],
    "underscore in an int": ["count", "--family", "ck", "--k", "1_0", "--m", "1"],
    "fullwidth digit": ["count", "--family", "ck", "--k=\uff13", "--m", "1"],
    "space before an int": ["count", "--family", "ck", "--k", " 3", "--m", "1"],
    "non-ascii digit after a prefix": ["count", "--fam", "ck", "--k", "\u0663", "--m", "1"],
    "non-ascii degree": ["verify", "lmw", "--n", "\u0667", "--k", "1"],
    "non-ascii workers": ["verify", "involution", "--k", "4", "--workers", "\u0662"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS.keys())
def test_usage_error_exits_2_with_usage_and_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: lpolydiv")
    assert error.startswith("lpolydiv") and ": error: " in error
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, expected", [
    ("count --family ck --k 1 --m 1 --cache-dir=--", {"cache_dir": "--"}),
    ("count --fam ck --k 1 --m 1 --cache-dir=--", {"cache_dir": "--"}),
    ("verify as-image --po=--", {"poly": "--"}),
    ("count --family ck --k=-- --m 1", (2, "lpolydiv count: error: argument --k: invalid int value: '--'")),
    ("count --family ck --k 1 --m=--", (2, "lpolydiv count: error: argument --m: invalid int value: '--'")),
    ("conjecture --family ck --kmax 3 --workers=--",
     (2, "lpolydiv conjecture: error: argument --workers: invalid int value: '--'")),
    ("verify involution --k=-- --k 4", (2, "lpolydiv verify involution: error: argument --k: invalid int value: '--'")),
    ("count --family=-- --k 1 --m 1", (2, "lpolydiv count: error: argument --family: invalid choice: '--'")),
])
def test_option_given_two_dashes_takes_them_as_its_value(argv, expected):
    # Argparse before Python 3.13 reads "--opt=--" as an empty list; every version here reads "--".
    outcome = _outcome(cli.parse_args, argv.split())
    if isinstance(expected, dict):
        assert {key: outcome[key] for key in expected} == expected
    else:
        assert outcome[0] == expected[0] and outcome[1].startswith(expected[1]), outcome


@pytest.mark.parametrize("argv", [
    ["count", "--family", "ck", "--k", "\u0661", "--m", "3"],  # read from the table, then by argparse
    ["count", "--fam", "ck", "--k", "\u0661", "--m", "3"],  # read by argparse alone
])
def test_int_option_error_keeps_argparse_wording(argv):
    assert _outcome(cli.parse_args, argv) == (2, "lpolydiv count: error: argument --k: invalid int value: '\u0661'")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, path", [
    (["-h"], ""), (["verify", "--help"], "verify"), (["count", "-h"], "count"),
    (["count", "--family", "ck", "--he"], "count"), (["verify", "as-image", "-h"], "verify as-image"),
    (["--help"], ""), (["count", "--help"], "count"), (["count", "--fam", "ck", "-h"], "count"),
])
def test_help_lists_every_option_and_exits_0(argv, path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 0 and err == ""
    assert out.startswith(f"usage: lpolydiv {path}".rstrip() + " [-h]")
    listed = cli._children(path) + [flag for flag, *_ in cli._options(path)]
    assert cli.COMMANDS[path][1] in out and "--help" in out
    assert listed and all(f"  {name} " in out for name in listed), out
    notes = [
        f"{text} " + ("(required)" if default is cli.REQUIRED else f"(default: {default})")
        for _, _, default, text in cli._options(path) if default is not None
    ]
    assert all(note in " ".join(out.split()) for note in notes), out


def test_count_past_2_26_needs_no_flag(tmp_path, capsys):
    from lpolydiv.curves import CurveSpec, count_series
    from lpolydiv.lseries import lpoly_from_counts, predicted_count

    code, out, _ = run(
        capsys, "count", "--family", "ck", "--k", "1", "--m", "30",
        "--cache-dir", str(tmp_path), "--format", "records",
    )
    assert code == 0
    l_c1 = lpoly_from_counts(count_series(CurveSpec("ck", 1), 1))
    assert json.loads(out)["n"] == predicted_count(l_c1, 30)


@pytest.mark.parametrize(
    "argv, limit",
    [
        pytest.param(
            ("count", "--family", "ck", "--k", "1", "--m", "33"), "degree limit",
            id="ck-33-degree limit",
        ),
        pytest.param(
            ("count", "--family", "ek", "--k", "1", "--m", "21"), "MAX_RECURRENCE_ORDER",
            id="ek-21-MAX_RECURRENCE_ORDER",
        ),
        # p**m at this m takes tens of seconds to compute, so the degree is checked first
        pytest.param(
            ("count", "--family", "ckp", "--p", "3", "--k", "1", "--m", "30000000"),
            "order limit", id="ckp-30000000-order limit",
        ),
        # the series needs GF(2^64); its first 32 counts fit
        pytest.param(("lpoly", "--family", "ck", "--k", "7"), "degree limit", id="lpoly-ck-7"),
        # the genus 2^(k-1) is too long to print in decimal
        pytest.param(
            ("lpoly", "--family", "ck", "--k", "100000000"), "degree limit",
            id="lpoly-ck-100000000",
        ),
        # k = 2 fits, k = 3 needs GF(3^27)
        pytest.param(
            ("conjecture", "--family", "ckp", "--p", "3", "--kmax", "3"), "order limit",
            id="conjecture-ckp-3",
        ),
        # one check of kmax's series, with its genus capped at 2^64, not one per k
        pytest.param(
            ("conjecture", "--family", "ck", "--kmax", "100000000"), "degree limit",
            id="conjecture-ck-100000000",
        ),
        pytest.param(
            ("conjecture", "--family", "ckp", "--p", "3", "--kmax", "100000000"), "order limit",
            id="conjecture-ckp-100000000",
        ),
    ],
)
def test_field_limits_refuse_before_any_work(tmp_path, capsys, argv, limit):
    cache_dir = tmp_path / "cache"
    code, out, err = run(capsys, *argv, "--cache-dir", str(cache_dir))
    assert code == 2 and out == ""
    assert limit in err
    assert not cache_dir.exists()


@pytest.mark.parametrize(
    "argv, skipped, limit",
    [
        # the closed form alone forms 2^(n-1)
        (("verify", "lmw", "--n", "33", "--k", "1"), "lmw_formula", "degree limit"),
        # curves binds make_field by name; gf.make_field is lru_cached
        (("count", "--family", "ek", "--k", "1", "--m", "21"), "make_field", "MAX_RECURRENCE_ORDER"),
    ],
    ids=["verify-lmw-33", "ek-21"],
)
def test_refusal_comes_before_the_work_it_skips(tmp_path, capsys, monkeypatch, argv, skipped, limit):
    def refuse(*args):
        raise AssertionError(f"{skipped} ran before the refusal")

    monkeypatch.setattr(f"lpolydiv.curves.{skipped}", refuse)
    code, out, err = run(capsys, *argv, "--cache-dir", str(tmp_path / "cache"))
    assert code == 2 and out == ""
    assert limit in err


@pytest.mark.parametrize(
    "argv, code",
    [
        (("verify", "involution", "--k", "62"), 0),
        # p = 2^61 - 1 is prime: x^(p^2 + p) is past the 64-bit term bound
        (("verify", "as-image", "--p", "2305843009213693951"), 2),
        (("count", "--family", "ckp", "--p", "2305843009213693951", "--k", "1", "--m", "1"), 2),
        # the twist p^k is taken mod m, and the genus is not formed
        (("count", "--family", "ck", "--k", "100000000", "--m", "3"), 0),
        (("count", "--family", "ek", "--k", "100000000", "--m", "3"), 0),
        (("count", "--family", "ckp", "--p", "3", "--k", "100000000", "--m", "3"), 0),
        (("count", "--family", "ck", "--k", "100000", "--m", "3"), 0),
        (("verify", "lmw", "--n", "7", "--k", "100000000"), 0),
        # the genus 2 * 3^k / 2 is refused before it is formed
        (("lpoly", "--family", "ckp", "--p", "3", "--k", "100000000"), 2),
        (("conjecture", "--family", "ck", "--kmax", "100000000"), 2),
        (("conjecture", "--family", "ckp", "--p", "3", "--kmax", "100000000"), 2),
    ],
    ids=[
        "involution-62", "as-image-p61", "count-ckp-p61", "count-ck-k1e8", "count-ek-k1e8",
        "count-ckp-k1e8", "count-ck-k1e5", "lmw-k1e8", "lpoly-ckp-k1e8", "conjecture-ck-k1e8",
        "conjecture-ckp-k1e8",
    ],
)
def test_large_parameters_finish_in_two_seconds(tmp_path, argv, code):
    proc = subprocess.run(
        [sys.executable, "-m", "lpolydiv", *argv, "--cache-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=2,
    )
    assert proc.returncode == code, proc.stderr


def test_count_commands_leave_numpy_unloaded(tmp_path):
    argvs = [
        ["count", "--family", "ck", "--k", "6", "--m", "26"],
        ["verify", "involution", "--k", "4"],
        ["count", "--family", "ek", "--k", "2", "--m", "5"],
        ["conjecture", "--family", "ek", "--kmax", "3"],
    ]
    script = f"""
import json, sys
from lpolydiv import cli
loaded = ["numpy" in sys.modules]
for argv in {argvs!r}:
    assert cli.main(argv + ["--cache-dir", {str(tmp_path)!r}]) == 0
    loaded.append("numpy" in sys.modules)
print(json.dumps(loaded))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [False] * 5


LIBRARY = ("gf", "_kernels", "curves", "cache", "lseries", "sympoly")
PARSING = ("argparse", "gettext", "locale")
WARM_PREFILL = ["conjecture", "--family", "ek", "--kmax", "3"]


@pytest.mark.parametrize(
    "prefill, argvs, idle, unloaded",
    [
        pytest.param(None, [], LIBRARY, ("__future__", "dataclasses", "fractions", "numpy", *PARSING), id="import"),
        pytest.param(
            None,
            [
                ["verify", "morphism", "--k", "6", "--l", "2"],
                ["verify", "involution", "--k", "4"],
            ],
            ("curves", "lseries", "_kernels", "cache", "gf"),
            ("__future__", "dataclasses", "fractions", "numpy", *PARSING),
            id="verify",
        ),
        pytest.param(
            None,
            [["verify", "as-image", "--p", "3"]],
            ("curves", "lseries", "_kernels", "cache"),
            ("__future__", "dataclasses", "fractions", "numpy", *PARSING),
            id="as-image",
        ),
        pytest.param(
            None,
            [
                ["count", "--family", "ck", "--k", "3", "--m", "5"],
                ["count", "--family", "ek", "--k", "2", "--m", "5"],
                ["verify", "lmw", "--n", "7", "--k", "1"],
            ],
            ("sympoly", "lseries"),
            ("__future__", "dataclasses", "inspect", "fractions", "numpy", *PARSING),
            id="count",
        ),
        pytest.param(
            None,
            [
                ["lpoly", "--family", "ek", "--k", "3"],
                ["conjecture", "--family", "ck", "--kmax", "3"],
            ],
            ("sympoly",),
            ("__future__", "dataclasses", "inspect", "fractions", "numpy", *PARSING),
            id="lseries",
        ),
        # Every count below is read from the cache that the prefill command fills.
        pytest.param(
            WARM_PREFILL,
            [
                ["count", "--family", "ek", "--k", "3", "--m", "5"],
                ["lpoly", "--family", "ek", "--k", "2"],
                WARM_PREFILL,
            ],
            ("_kernels", "sympoly"),
            ("__future__", "dataclasses", "inspect", "fractions", "numpy", *PARSING),
            id="warm",
        ),
    ],
)
def test_commands_run_only_the_modules_they_use(tmp_path, prefill, argvs, idle, unloaded):
    if prefill:
        cmd = [sys.executable, "-m", "lpolydiv", *prefill, "--cache-dir", str(tmp_path)]
        assert subprocess.run(cmd, capture_output=True).returncode == 0
    script = f"""
import json, sys, types
before = set(sys.modules)
from lpolydiv import cli
for argv in {argvs!r}:
    assert cli.main(argv + ["--cache-dir", {str(tmp_path)!r}]) == 0

def ran(name):
    # A lazily registered module keeps the loader's module subclass until its body runs.
    return type(sys.modules.get("lpolydiv." + name)) is types.ModuleType

print(json.dumps({{
    "ran": [name for name in {idle!r} if ran(name)],
    "loaded": [name for name in {unloaded!r} if name in sys.modules and name not in before],
}}))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"ran": [], "loaded": []}


def test_failure_exit_code(monkeypatch, capsys):
    monkeypatch.setattr("lpolydiv.sympoly.verify_covering", lambda k, l: False)
    code, out, _ = run(capsys, "verify", "morphism", "--k", "4", "--l", "2")
    assert code == 1
    assert "FAILS" in out


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "envcache"))
    code, out, _ = run(capsys, "count", "--family", "ck", "--k", "1", "--m", "2")
    assert code == 0
    assert (tmp_path / "envcache" / "counts.jsonl").exists()


@pytest.mark.parametrize("option", [["--cache-dir="], ["--cache-dir", ""]], ids=["joined", "split"])
def test_empty_cache_dir_is_a_usage_error(tmp_path, capsys, monkeypatch, option):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "envcache"))
    code, out, err = run(capsys, "count", "--family", "ck", "--k", "1", "--m", "3", *option)
    assert code == 2 and out == ""
    assert err == "error: --cache-dir must not be empty\n"
    assert list(tmp_path.iterdir()) == []


def test_empty_cache_env_var_means_unset(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.setenv(cli.CACHE_ENV, "")
    code, _, _ = run(capsys, "count", "--family", "ck", "--k", "1", "--m", "2")
    assert code == 0
    assert (tmp_path / ".cache" / "lpolydiv" / "counts.jsonl").exists()


def _old_record(spec, m) -> str:
    """The record an earlier version stored for N_m, keyed also by the modulus of GF(p^m)."""
    from lpolydiv.curves import point_count
    from lpolydiv.gf import make_field

    return json.dumps(
        {"family": spec.family, "k": spec.k, "p": spec.p, "m": m,
         "modulus": list(make_field(spec.p, m).modulus), "n": point_count(spec, m),
         "timestamp": "2026-01-01T00:00:00Z"},
        separators=(",", ":"),
    ) + "\n"


def test_cache_file_of_earlier_versions_is_read_as_hits(tmp_path, capsys):
    from lpolydiv.curves import CurveSpec

    specs = (CurveSpec("ck", 2), CurveSpec("ckp", 1, 3))
    old = tmp_path / "old"
    old.mkdir()
    (old / "counts.jsonl").write_text("".join(_old_record(s, m) for s in specs for m in range(1, s.genus + 1)))
    before = (old / "counts.jsonl").read_bytes()
    argvs = [
        ["count", "--family", "ckp", "--p", "3", "--k", "1", "--m", "3", "--format", "records"],
        ["lpoly", "--family", "ck", "--k", "2"],
        ["lpoly", "--family", "ckp", "--p", "3", "--k", "1"],
    ]
    for argv in argvs:
        code, out, err = run(capsys, *argv, "--cache-dir", str(old))
        assert code == 0, err
        # the same stdout as counting afresh, but for the provenance
        assert out == run(capsys, *argv, "--cache-dir", str(tmp_path / "fresh"))[1].replace("fresh", "cached")
    # every count was a hit, so nothing was appended
    assert (old / "counts.jsonl").read_bytes() == before


def test_warm_commands_build_no_field(tmp_path, capsys):
    argvs = [
        ["count", "--family", "ckp", "--p", "3", "--k", "1", "--m", "3"],
        ["count", "--family", "ek", "--k", "2", "--m", "5", "--format", "records"],
        ["lpoly", "--family", "ek", "--k", "3"],
        ["conjecture", "--family", "ckp", "--p", "3", "--kmax", "2"],
    ]
    for argv in argvs:
        assert run(capsys, *argv, "--cache-dir", str(tmp_path))[0] == 0
    warm = [list(run(capsys, *argv, "--cache-dir", str(tmp_path))[:2]) for argv in argvs]
    script = f"""
import contextlib, io, json
from lpolydiv import cli, gf

def search(p, m):
    raise AssertionError(f"searched a modulus for GF({{p}}^{{m}})")

gf._lex_smallest_irreducible = search
results = []
for argv in {argvs!r}:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv + ["--cache-dir", {str(tmp_path)!r}])
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == warm


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "lpolydiv", "lpoly", "--family", "ck", "--k", "1",
         "--cache-dir", str(tmp_path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "L(C_1) = 2t^2+2t+1\n"
    # lpolydiv.cli run as a module prints what the package entry point prints
    argv = ["verify", "involution", "--k", "4", "--format", "records"]
    outs = [
        subprocess.run([sys.executable, "-m", module, *argv], capture_output=True, text=True)
        for module in ("lpolydiv", "lpolydiv.cli")
    ]
    assert [proc.returncode for proc in outs] == [0, 0], outs[1].stderr
    record = '{"record":"verify","check":"involution","k":4,"found":true,"b":"x^8+x^4+x^2+x"}\n'
    assert outs[1].stdout == outs[0].stdout == record


def test_module_entry_point_exit_codes(tmp_path):
    (tmp_path / "counts.jsonl").write_text("not json\n")
    for argv, code, message in [
        (["lpoly", "--family", "ck", "--k", "1", "--cache-dir", str(tmp_path)], 1, "malformed"),
        (["verify", "as-image", "--p", "4"], 2, "not prime"),
        # a regular file given as the cache directory
        (["count", "--family", "ck", "--k", "1", "--m", "3",
          "--cache-dir", str(tmp_path / "counts.jsonl")], 2, "counts.jsonl/counts.jsonl"),
        (["count", "--family", "ckp", "--p", "4194319", "--k", "1", "--m", "1",
          "--cache-dir", str(tmp_path / "unused")], 2,
         "error: GF(4194319) exceeds the odd-characteristic order limit 2^22\n"),
    ]:
        proc = subprocess.run(
            [sys.executable, "-m", "lpolydiv", *argv], capture_output=True, text=True
        )
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == "" and message in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "block-buffered"])
def test_closed_stdout_reader_exits_141_quietly(unbuffered):
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lpolydiv", "verify", "involution", "--k", "4"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=30,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141, proc.stderr
    assert proc.stderr == ""


def test_count_rejects_a_cached_count_outside_hasse_weil(tmp_path, capsys):
    from lpolydiv.cache import CountCache
    from lpolydiv.curves import CurveSpec

    CountCache(tmp_path / "counts.jsonl").store(CurveSpec("ck", 1), 3, 999)
    code, out, err = run(
        capsys, "count", "--family", "ck", "--k", "1", "--m", "3", "--cache-dir", str(tmp_path)
    )
    assert code == 1
    assert out == ""
    assert "Hasse-Weil" in err


def test_malformed_cache_record_exits_1(tmp_path, capsys):
    (tmp_path / "counts.jsonl").write_text("not json\n")
    code, out, err = run(
        capsys, "lpoly", "--family", "ck", "--k", "1", "--cache-dir", str(tmp_path)
    )
    assert code == 1 and out == ""
    assert "malformed" in err


def test_commands_that_count_nothing_create_no_cache_dir(tmp_path, capsys):
    missing = tmp_path / "missing"
    code, _, _ = run(capsys, "verify", "morphism", "--k", "4", "--l", "2", "--cache-dir", str(missing))
    assert code == 0
    assert not missing.exists()


def test_workers_below_one_is_a_usage_error(tmp_path, capsys):
    code, out, err = run(
        capsys, "count", "--family", "ck", "--k", "1", "--m", "3", "--workers", "0",
        "--cache-dir", str(tmp_path),
    )
    assert code == 2 and out == ""
    assert "--workers" in err
