"""Traced CLI run: time the calls into each lpolydiv layer from outside.

    python tracer.py SPANS_JSON <lpolydiv arguments...>

runs one ``lpolydiv`` command in this process exactly as ``python -m
lpolydiv`` would, with each layer's public functions wrapped where the
calling modules bind them.  Spans (name, parent, start, end, attributes)
stay in memory and are written to SPANS_JSON when the command ends; stdout
and the exit code are the command's own.

The second half of the file turns span files into per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (span name, module, attribute) of every traced public function.
TARGETS = (
    ("kernels.count", "lpolydiv._kernels", "trace_zero_count"),
    ("gf.make_field", "lpolydiv.gf", "make_field"),
    ("gf.tables", "lpolydiv.gf", "FieldContext.multiplicative_tables"),
    ("cache.lookup", "lpolydiv.cache", "CountCache.lookup"),
    ("cache.store", "lpolydiv.cache", "CountCache.store"),
    ("curves.count_series", "lpolydiv.curves", "count_series"),
    ("curves.point_count", "lpolydiv.curves", "point_count"),
    ("curves.lmw_zero_count", "lpolydiv.curves", "lmw_zero_count"),
    ("lseries.lpoly_from_counts", "lpolydiv.lseries", "lpoly_from_counts"),
    ("lseries.divides", "lpolydiv.lseries", "divides"),
    ("sympoly.verify_covering", "lpolydiv.sympoly", "verify_covering"),
    ("sympoly.involution_search", "lpolydiv.sympoly", "involution_search"),
    ("sympoly.artin_schreier_image", "lpolydiv.sympoly", "artin_schreier_image"),
)


class Recorder:
    """In-memory span list; a stack of open spans gives each span its parent."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._tabled: set[int] = set()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, self._open[-1] if self._open else None, time.perf_counter(), None, {}]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            span[4] = self._attrs(name, args, result)
            return result

        return traced

    def _attrs(self, name: str, args: tuple, result) -> dict:
        if name == "kernels.count":
            return {"elements": args[0].order}
        if name == "gf.tables":
            ctx = args[0]
            first = id(ctx) not in self._tabled
            self._tabled.add(id(ctx))
            return {"p": ctx.p, "elements": ctx.order if first else 0}
        if name == "cache.lookup":
            return {"hit": result is not None}
        return {}

    def install(self) -> list[str]:
        """Wrap every target; return the targets this version of lpolydiv lacks."""
        missing = []
        loaded = [m for n, m in sys.modules.items() if n == "lpolydiv" or n.startswith("lpolydiv.")]
        for name, module, attr in TARGETS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                missing.append(f"{module}.{attr}")
                continue
            wrapped = self.wrap(name, original)
            if path:
                setattr(owner, leaf, wrapped)
                continue
            # Rebind the function wherever a module imported it by name.
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
        return missing


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import lpolydiv.cli

    import_s = time.perf_counter() - start
    recorder = Recorder()
    missing = recorder.install()
    try:
        return recorder.wrap("cli.main", lpolydiv.cli.main)(cli_args)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w") as fh:
            json.dump({"import_s": import_s, "missing": missing, "spans": recorder.spans}, fh)


# -- span arithmetic -----------------------------------------------------------------


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, parent, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, _, start, end, _) in enumerate(spans):
        covered = 0.0
        run_start = run_end = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if run_end is not None and lo <= run_end:
                run_end = max(run_end, hi)
                continue
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = lo, hi
        if run_end is not None:
            covered += run_end - run_start
        out.append(end - start - covered)
    return out


def layer_metrics(commands: list[dict]) -> dict[str, float]:
    """Per-layer totals over the span files of one traced pass."""
    calls: dict[str, int] = {}
    dur: dict[str, float] = {}
    self_s: dict[str, float] = {}
    sympoly_max = 0.0
    elements = {"kernels.count": 0, "gf.tables": 0}
    tables_by_char = {"p2": 0.0, "odd": 0.0}
    hits = 0
    import_s = 0.0
    for cmd in commands:
        import_s += cmd["import_s"]
        spans = cmd["spans"]
        for (name, _, start, end, attrs), own in zip(spans, self_times(spans)):
            calls[name] = calls.get(name, 0) + 1
            dur[name] = dur.get(name, 0.0) + (end - start)
            self_s[name] = self_s.get(name, 0.0) + own
            if name in elements:
                elements[name] += attrs["elements"]
            if name == "gf.tables":
                tables_by_char["p2" if attrs["p"] == 2 else "odd"] += end - start
            if name == "cache.lookup":
                hits += attrs["hit"]
            if name.startswith("sympoly."):
                sympoly_max = max(sympoly_max, end - start)

    def total(table: dict, prefix: str):
        return sum(v for k, v in table.items() if k == prefix or k.startswith(prefix + "."))

    kernel_self = self_s.get("kernels.count", 0.0)
    lookups = calls.get("cache.lookup", 0)
    return {
        "kernels.count.calls": calls.get("kernels.count", 0),
        "kernels.count.self_s": kernel_self,
        "kernels.count.elements": elements["kernels.count"],
        "kernels.count.elements_per_s": elements["kernels.count"] / kernel_self if kernel_self else 0.0,
        "gf.make_field.calls": calls.get("gf.make_field", 0),
        "gf.make_field.s": dur.get("gf.make_field", 0.0),
        "gf.tables.calls": calls.get("gf.tables", 0),
        "gf.tables.elements": elements["gf.tables"],
        "gf.tables.s": dur.get("gf.tables", 0.0),
        "gf.tables.p2_s": tables_by_char["p2"],
        "gf.tables.odd_s": tables_by_char["odd"],
        "cache.lookup.calls": lookups,
        "cache.lookup.s": dur.get("cache.lookup", 0.0),
        "cache.hit_ratio": hits / lookups if lookups else 0.0,
        "cache.store.calls": calls.get("cache.store", 0),
        "cache.store.s": dur.get("cache.store", 0.0),
        "cli.import_s": import_s,
        "cli.self_s": self_s.get("cli.main", 0.0),
        "cli.calls": calls.get("cli.main", 0),
        "sympoly.calls": total(calls, "sympoly"),
        "sympoly.s": total(dur, "sympoly"),
        "sympoly.max_s": sympoly_max,
        "lseries.calls": total(calls, "lseries"),
        "lseries.s": total(dur, "lseries"),
        "curves.self_s": total(self_s, "curves"),
        "curves.point_count.calls": calls.get("curves.point_count", 0),
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
