"""The command sequences the benchmark times, one list per workload.

A command is the text after ``python -m lpolydiv``; the harness appends
``--format records --workers 1 --cache-dir DIR``.  Every list is a pure
function of the seed.  On the cold workloads the seed only permutes
commands whose order cannot change their output or cost; on ``warm_mix``
it draws the closed-loop command mix from fixed per-class quotas, so every
seed yields the same amount of each kind of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


def family_flags(family: str, k: int, p: int = 2) -> str:
    if family == "ckp":
        return f"--family ckp --p {p} --k {k}"
    return f"--family {family} --k {k}"


# Computed here, not taken from lpolydiv.CurveSpec, so that the benchmark's
# command lists do not change with the code it measures.
def _genus(family: str, k: int, p: int = 2) -> int:
    if family == "ck":
        return 1 << (k - 1)
    if family == "ek":
        return (1 << (k - 1)) + 1
    return (p - 1) * p**k // 2


# -- cold workloads -------------------------------------------------------------

CK_COUNTS = tuple(f"count --family ck --k 6 --m {m}" for m in range(21, 27))
EK_COUNTS = tuple(f"count --family ek --k 5 --m {m}" for m in (18, 19, 20)) + (
    "count --family ek --k 3 --m 20",
)


def ck_bits(seed: int) -> list[str]:
    """Opening stretch of the C_6 run: bit-kernel counts up to GF(2^26)."""
    counts = list(CK_COUNTS)
    random.Random(seed).shuffle(counts)
    return ["conjecture --family ck --kmax 5", *counts, "verify lmw --n 25 --k 1"]


def tables(seed: int) -> list[str]:
    """ek and ckp counts: discrete-log table builds in both characteristics."""
    counts = list(EK_COUNTS)
    random.Random(seed).shuffle(counts)
    return [
        "conjecture --family ek --kmax 5",
        *counts,
        "conjecture --family ckp --p 3 --kmax 2",
        "count --family ckp --p 3 --k 1 --m 10",
    ]


# -- warm workload ----------------------------------------------------------------

# Set-up runs these into the fresh cache before the timed phase of warm_mix;
# every count the mix reads is among the ones they store.
PREFILL = (
    "conjecture --family ck --kmax 5",
    "conjecture --family ek --kmax 5",
    "conjecture --family ckp --p 3 --kmax 2",
)
PREFILLED = tuple(("ck", k, 2) for k in range(1, 6)) + tuple(
    ("ek", k, 2) for k in range(1, 6)
) + (("ckp", 1, 3), ("ckp", 2, 3))

LPOLY_READS = tuple(f"lpoly {family_flags(f, k, p)}" for f, k, p in PREFILLED)
CONJECTURE_READS = tuple(
    f"conjecture --family {f} --kmax {kmax}" for f in ("ck", "ek") for kmax in range(2, 6)
) + ("conjecture --family ckp --p 3 --kmax 2",)
COUNT_READS = tuple(
    f"count {family_flags(f, k, p)} --m {m}"
    for f, k, p in PREFILLED
    for m in range(1, _genus(f, k, p) + 1)
)


def _morphism(k: int, l: int) -> str:
    return f"verify morphism --k {k} --l {l}"


# verify_covering costs grow steeply with k / l (about k^4 at l = 1), so the
# morphism checks fall into three cost classes with fixed quotas per mix.
# The one heavy command sets the top of the latency tail and the peak RSS.
# The medium commands cost within about a third of each other, and there are
# enough of them that the tail percentile of a two-pass run falls in the
# middle of the class, not on a class boundary.
MORPHISM_HEAVY = (_morphism(62, 1),)
MORPHISM_MEDIUM = tuple(_morphism(k, l) for k, l in ((48, 2), (52, 2), (37, 1), (38, 1)))
MORPHISM_LIGHT = tuple(
    _morphism(k, l) for k in range(2, 63) for l in range(1, k) if k % l == 0 and k // l <= 12
)
INVOLUTION = tuple(f"verify involution --k {k}" for k in range(1, 21))
AS_IMAGE = tuple(f"verify as-image --p {p}" for p in (2, 3, 5, 7, 11, 13))

MIX_QUOTAS = (
    (MORPHISM_HEAVY, 1),
    (MORPHISM_MEDIUM, 8),
    (MORPHISM_LIGHT, 8),
    (INVOLUTION, 3),
    (AS_IMAGE, 2),
    (LPOLY_READS, 6),
    (CONJECTURE_READS, 4),
    (COUNT_READS, 8),
)


def _draw(rng: random.Random, pool: tuple[str, ...], quota: int) -> list[str]:
    """`quota` commands of `pool`, none drawn more than once beyond any other.

    Commands of one class differ in cost by up to a third, so drawing them
    with replacement would let the seed move the class's share of the work
    and, with it, the latency percentiles that fall inside the class.
    """
    whole, rest = divmod(quota, len(pool))
    return list(pool) * whole + rng.sample(pool, rest)


def warm_mix(seed: int) -> list[str]:
    """Closed-loop mix of short commands against the prefilled cache."""
    rng = random.Random(seed)
    mix = [cmd for pool, quota in MIX_QUOTAS for cmd in _draw(rng, pool, quota)]
    rng.shuffle(mix)
    return mix


@dataclass(frozen=True)
class Workload:
    name: str
    commands: Callable[[int], list[str]]
    # Set-up commands run into each fresh cache before the timed phase.
    prefill: tuple[str, ...]
    # Seconds one pass takes on the reference machine (2 cores, Python 3.11);
    # a run makes seconds // nominal_pass_s passes, so the sample count is
    # fixed for a given --seconds and percentiles do not jump between runs.
    nominal_pass_s: float
    # Set-ups before each pass, the first of which the pass uses; setup_s is
    # their median, so the cheap set-ups without a prefill are repeated more
    # to steady it.
    setups_per_pass: int
    # Layer metrics the traced run must read exactly: the layers this
    # workload leaves idle, which make it a control for the others.
    idle_checks: tuple[tuple[str, float], ...] = ()


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ck_bits", ck_bits, (), 7.0, 4, (("gf.tables.calls", 0),)),
        Workload("tables", tables, (), 6.0, 3),
        Workload(
            "warm_mix",
            warm_mix,
            PREFILL,
            12.0,
            3,
            (("kernels.count.calls", 0), ("cache.hit_ratio", 1)),
        ),
    )
}


def universe() -> list[str]:
    """Every command any workload or set-up can run, for any seed."""
    cold = ck_bits(0) + tables(0)
    warm = [cmd for pool, _ in MIX_QUOTAS for cmd in pool]
    return sorted(set(cold) | set(PREFILL) | set(warm))
