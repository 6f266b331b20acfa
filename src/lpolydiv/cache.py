"""Persistent point-count cache: one JSON record per line.

Each record stores family, k, p, m, the count, and a timestamp.  Lookups key
on (family, k, p, m): N_m does not depend on the modulus that presents
GF(p^m), so a lookup builds no field.  Records of earlier versions also carry
that modulus; they are read alike, the modulus ignored.  The timestamp is
informational, and re-reads are bit-exact because counts are integers end to
end.

Each record is appended with a single write under an exclusive ``flock``, so
concurrent writers never interleave.  A writer killed mid-write can leave
only the final line without its newline: readers warn about such a torn line
and ignore it, and the next store cuts it off before appending.  A malformed
record anywhere else is corruption and raises :class:`CountIntegrityError`, and
so do two records that store different counts for one key; repeats of one
count are legal, since concurrent writers can make them.  One rule,
:func:`_key_and_count`, judges each record read or written: family a string,
k, p, m and n ints by :func:`lpolydiv.gf._int`.  So the reader refuses every
record its writer could not write.  Unknown family strings are read, unmatched.
"""

import fcntl
import json
import os
import sys
import time
from pathlib import Path

from .curves import CountIntegrityError, CurveSpec
from .gf import _int


def _key_and_count(rec) -> tuple[tuple, int]:
    """The (family, k, p, m) key and count n of a record, else ValueError, KeyError or TypeError."""
    if not isinstance(rec["family"], str):
        raise TypeError(f"expected a family name, got {rec['family']!r}")
    return (rec["family"], _int(rec["k"]), _int(rec["p"]), _int(rec["m"])), _int(rec["n"])


class CountCache:
    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._records: dict[tuple, int] | None = None

    def _load(self) -> dict[tuple, int]:
        if self._records is not None:
            return self._records
        # Filled locally, so that a corrupt file raises again on the next call.
        records, first = {}, {}  # key -> count, key -> the line that first stored it
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            data = b""
        *lines, torn = data.split(b"\n")
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                key, n = _key_and_count(json.loads(line))
            except (ValueError, KeyError, TypeError, RecursionError) as exc:  # RecursionError: deep nesting
                raise CountIntegrityError(
                    f"{self.path}:{lineno}: malformed count record"
                ) from exc
            # Concurrent writers may store one count twice; two counts for one key are corruption.
            if records.setdefault(key, n) != n:
                raise CountIntegrityError(
                    f"{self.path}: lines {first[key]} and {lineno} store different counts "
                    f"({records[key]} and {n}) for the same curve and field"
                )
            first.setdefault(key, lineno)
        if torn.strip():
            print(
                f"warning: {self.path}:{len(lines) + 1}: ignoring a torn final line "
                "left by an interrupted write",
                file=sys.stderr,
            )
        self._records = records
        return records

    def lookup(self, spec: CurveSpec, m: int) -> int | None:
        return self._load().get((spec.family, spec.k, spec.p, m))

    def store(self, spec: CurveSpec, m: int, n: int) -> None:
        rec = {"family": spec.family, "k": spec.k, "p": spec.p, "m": m, "n": n}
        key, n = _key_and_count(rec)  # by the reader's rule, before the file is touched
        rec["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
        line = (json.dumps(rec, separators=(",", ":")) + "\n").encode()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                os.ftruncate(fd, os.pread(fd, size, 0).rfind(b"\n") + 1)
            if os.write(fd, line) != len(line):
                raise OSError(f"short write appending to {self.path}")
        finally:
            os.close(fd)
        self._load()[key] = n
