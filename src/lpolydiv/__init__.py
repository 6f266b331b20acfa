"""Exact point counting and L-polynomial divisibility for Artin-Schreier curve families.

The package splits into five parts:

* :mod:`lpolydiv.gf` -- arithmetic in GF(p^m) on packed-int elements;
* :mod:`lpolydiv.curves` -- the curve families and trace-based point counting;
* :mod:`lpolydiv.lseries` -- L-polynomials: Newton reconstruction, prediction,
  base change, exact division, squarefree tests;
* :mod:`lpolydiv.sympoly` -- sparse polynomials over GF(p) and the symbolic
  morphism/involution/additive-image checks;
* :mod:`lpolydiv.cli` -- the ``lpolydiv`` command.
"""

from .cache import CountCache
from .curves import (
    CountIntegrityError,
    CurveSpec,
    PointCounts,
    affine_count,
    count_series,
    lmw_formula,
    lmw_zero_count,
    point_count,
)
from .gf import FieldContext, FieldLimitError, is_prime, jacobi_symbol, make_field
from ._kernels import trace_zero_count
from .lseries import (
    DivisionResult,
    HasseWeilResult,
    LPolynomial,
    LSeriesError,
    base_change,
    divides,
    format_int_poly,
    hasse_weil_check,
    lpoly_from_counts,
    lpoly_from_line,
    lpoly_from_record,
    lpoly_to_line,
    lpoly_to_record,
    power_sums,
    predicted_count,
    squarefree,
)
from .sympoly import (
    ArtinSchreierDecision,
    SparsePoly,
    artin_schreier_image,
    build_f,
    build_g,
    covering_defect,
    format_poly_line,
    format_terms,
    frobenius,
    involution_search,
    parse_poly_line,
    parse_terms,
    tower_obstruction,
    verify_covering,
    verify_trace_morphism,
    x_pow,
)

__version__ = "0.1.0"

__all__ = [
    "ArtinSchreierDecision",
    "CountCache",
    "CountIntegrityError",
    "CurveSpec",
    "DivisionResult",
    "FieldContext",
    "FieldLimitError",
    "HasseWeilResult",
    "LPolynomial",
    "LSeriesError",
    "PointCounts",
    "SparsePoly",
    "affine_count",
    "artin_schreier_image",
    "base_change",
    "build_f",
    "build_g",
    "count_series",
    "covering_defect",
    "divides",
    "format_int_poly",
    "format_poly_line",
    "format_terms",
    "frobenius",
    "hasse_weil_check",
    "involution_search",
    "is_prime",
    "jacobi_symbol",
    "lmw_formula",
    "lmw_zero_count",
    "lpoly_from_counts",
    "lpoly_from_line",
    "lpoly_from_record",
    "lpoly_to_line",
    "lpoly_to_record",
    "make_field",
    "parse_poly_line",
    "parse_terms",
    "point_count",
    "power_sums",
    "predicted_count",
    "squarefree",
    "tower_obstruction",
    "trace_zero_count",
    "verify_covering",
    "verify_trace_morphism",
    "x_pow",
]
