"""Check ckp's closed form against the qf oracle on every input within the order limit.

    PYTHONPATH=src python tests/sweep_ckp_closed_form.py

For every odd prime p, every m >= 2 with p^m <= 2^32 and every k mod m (14,602
cases), N_m of C_k^(p) from ``curves.point_count``, which takes the closed form,
must equal the count of the qf elimination on a digit field of GF(p^m) in
``helpers``.  At m = 1 the curve's x^(p^k + 1) + x reduces to x^2 + x over
GF(p), and N_1 = 2p + 1 for every p.  Prints the number of cases and exits 0,
or names the first mismatch and exits 1.  pytest does not collect this file, which takes about 14 s
(Python 3.11.7, 2 shared cores); tier-1 runs the same comparison on 1,018 cases.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from helpers import ckp_qf_count, ckp_sweep_cases  # noqa: E402

from lpolydiv.curves import CurveSpec, point_count  # noqa: E402


def main() -> int:
    cases = 0
    for p, k, m in ckp_sweep_cases():
        closed, oracle = point_count(CurveSpec("ckp", k, p), m), ckp_qf_count(p, k, m)
        if closed != oracle:
            print(f"mismatch at p = {p}, k = {k}, m = {m}: closed form {closed}, qf {oracle}")
            return 1
        cases += 1
    print(f"{cases} cases, 0 mismatches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
