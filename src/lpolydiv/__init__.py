"""Exact point counting and L-polynomial divisibility for Artin-Schreier curve families.

The package splits into five parts:

* :mod:`lpolydiv.gf` -- arithmetic in GF(p^m) on packed-int elements;
* :mod:`lpolydiv.curves` -- the curve families and trace-based point counting;
* :mod:`lpolydiv.lseries` -- L-polynomials: Newton reconstruction, prediction,
  base change, exact division, squarefree tests;
* :mod:`lpolydiv.sympoly` -- sparse polynomials over GF(p) and the symbolic
  morphism/involution/additive-image checks;
* :mod:`lpolydiv.cli` -- the ``lpolydiv`` command.

Importing the package runs none of them.  Each library module (``gf``,
``curves``, ``lseries``, ``sympoly`` and the internal ``_kernels`` and
``cache``) is registered in ``sys.modules`` through
:class:`importlib.util.LazyLoader`, so its body runs on the first read of one
of its attributes; ``import lpolydiv.curves`` alone does not run it.  The
names of ``__all__`` are served from their modules, so ``from lpolydiv import
CurveSpec`` runs only ``curves`` and what it imports, and ``from lpolydiv
import *`` runs everything.  A CLI command runs only the modules it calls:
``verify morphism`` runs ``sympoly`` alone.

The first read of a lazy module is not thread-safe on Python 3.10 to 3.12
(3.10.13, 3.11.7 and 3.12.1 were checked; 3.13 adds a lock).  The loader
marks the module loaded before its body runs, so a second thread can find it
half-initialized and fail with AttributeError.  A program that uses the
library from several threads should run ``from lpolydiv import *`` (or read
an attribute of each module it uses) before it starts them.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Module -> the public names it defines.
_EXPORTS = {
    "cache": ("CountCache",),
    "curves": (
        "CountIntegrityError", "CurveSpec", "PointCounts", "affine_count", "count_series",
        "lmw_formula", "lmw_zero_count", "point_count",
    ),
    "gf": ("FieldContext", "FieldLimitError", "is_prime", "jacobi_symbol", "make_field"),
    "_kernels": ("trace_zero_count",),
    "lseries": (
        "DivisionResult", "HasseWeilResult", "LPolynomial", "LSeriesError", "base_change",
        "divides", "format_int_poly", "hasse_weil_check", "lpoly_from_counts",
        "lpoly_from_line", "lpoly_from_record", "lpoly_to_line", "lpoly_to_record",
        "power_sums", "predicted_count", "squarefree",
    ),
    "sympoly": (
        "ArtinSchreierDecision", "SparsePoly", "artin_schreier_image", "build_f", "build_g",
        "covering_defect", "format_terms", "frobenius", "involution_search", "parse_terms",
        "tower_obstruction", "verify_covering", "verify_trace_morphism", "x_pow",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def _register_lazy(name: str):
    """The submodule `name`, in sys.modules, its body deferred to first use."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update({name: _register_lazy(name) for name in _EXPORTS})


def __getattr__(name: str):
    if name in _OWNER:
        return getattr(globals()[_OWNER[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
