"""Regenerate expected.jsonl: the exit code and stdout of every benchmark command.

    python3 perfbench/expected.py

Run from a source checkout that has ``tests/helpers.py``.  Each command of
``workloads.universe()`` runs once through ``lpolydiv.cli.main`` in this
process, in the cache state the benchmark gives it: cold commands on an
empty cache, warm-mix commands on a cache prefilled by ``PREFILL``.  Before
anything is written the records are cross-checked by independent means:

* ck L-polynomials against the factored table ``CK_FACTORED``;
* every ``conjecture`` quotient times L(k = 1) against L(k);
* counts past the genus against ``predicted_count`` of the L-polynomial;
* the lmw count against ``lmw_formula``;
* every warm count read says ``"provenance":"cached"``, every cold one
  ``"fresh"``, and the warm commands add nothing to the cache.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from lpolydiv import cli  # noqa: E402
from lpolydiv.curves import lmw_formula  # noqa: E402
from lpolydiv.lseries import LPolynomial, predicted_count  # noqa: E402


class CrossCheckError(RuntimeError):
    """A recorded output disagrees with its independent check."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CrossCheckError(what)


def _helpers():
    spec = importlib.util.spec_from_file_location("helpers", ROOT / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_cli(cmd: str, cache_dir: Path) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([*cmd.split(), "--format", "records", "--workers", "1", "--cache-dir", str(cache_dir)])
    return {"argv": cmd, "exit": code, "stdout": out.getvalue()}


def generate(work: Path) -> dict[str, dict]:
    records = {}
    for name, cmds in (("ck_bits", workloads.ck_bits(0)), ("tables", workloads.tables(0))):
        cache = work / name
        for cmd in cmds:
            records[cmd] = run_cli(cmd, cache)
    warm_cache = work / "warm"
    for cmd in workloads.PREFILL:
        require(run_cli(cmd, warm_cache) == records[cmd], f"prefill {cmd} differs from its cold run")
    filled = (warm_cache / "counts.jsonl").read_text()
    for cmd in workloads.universe():
        if cmd not in records:
            records[cmd] = run_cli(cmd, warm_cache)
    require((warm_cache / "counts.jsonl").read_text() == filled, "a warm command missed the cache")
    return records


def _lines(rec: dict) -> list[dict]:
    return [json.loads(line) for line in rec["stdout"].splitlines()]


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def cross_check(records: dict[str, dict]) -> None:
    helpers = _helpers()
    for cmd, rec in records.items():
        require(rec["exit"] == 0, f"{cmd}: exit {rec['exit']}")

    lpolys = {}
    for f, k, p in workloads.PREFILLED:
        (line,) = _lines(records[f"lpoly {workloads.family_flags(f, k, p)}"])
        lpolys[f, k, p] = LPolynomial(line["q"], line["g"], tuple(int(c) for c in line["coeffs"]))
    ck_table = {k: helpers.expand_factors(fs) for k, fs in helpers.CK_FACTORED.items()}
    for k in range(1, 6):
        require(lpolys["ck", k, 2].coeffs == ck_table[k], f"L(C_{k}) differs from CK_FACTORED")
    lpolys["ck", 6, 2] = LPolynomial(2, 32, ck_table[6])

    for cmd in workloads.CONJECTURE_READS:
        for line in _lines(records[cmd]):
            f, p, k = line["family"], line["p"], line["k"]
            require(line["divides"], cmd)
            product = _poly_mul(lpolys[f, 1, p].coeffs, [int(c) for c in line["quotient"]])
            require(tuple(product) == lpolys[f, k, p].coeffs, f"{cmd}: quotient times L(k=1) != L(k={k})")

    cold_counts = set(workloads.CK_COUNTS + workloads.EK_COUNTS) | {"count --family ckp --p 3 --k 1 --m 10"}
    for cmd, rec in records.items():
        if not cmd.startswith("count "):
            continue
        (line,) = _lines(rec)
        want = "fresh" if cmd in cold_counts else "cached"
        require(line["provenance"] == want, f"{cmd}: provenance {line['provenance']}, expected {want}")
        lpoly = lpolys[line["family"], line["k"], line["p"]]
        require(line["n"] == predicted_count(lpoly, line["m"]), f"{cmd}: N differs from predicted_count")

    (lmw,) = _lines(records["verify lmw --n 25 --k 1"])
    require(lmw["counted"] == lmw["formula"] == lmw_formula(25, 1, 0), "lmw count differs from lmw_formula")

    for cmd, rec in records.items():
        (line,) = _lines(rec) if cmd.startswith("verify ") else ({},)
        if line.get("check") == "morphism":
            require(line["holds"], cmd)
        elif line.get("check") == "involution":
            require(line["found"] == (line["k"] % 2 == 0), cmd)
        elif line.get("check") == "as-image":
            require(line["in_image"] == (line["p"] == 2), cmd)


def main() -> int:
    parent = ROOT / ".perfbench-work"
    parent.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="expected-", dir=parent))
    try:
        records = generate(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()
    cross_check(records)
    with (HERE / "expected.jsonl").open("w") as fh:
        for cmd in sorted(records):
            fh.write(json.dumps(records[cmd], separators=(",", ":")) + "\n")
    print(f"wrote {len(records)} expected records", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
