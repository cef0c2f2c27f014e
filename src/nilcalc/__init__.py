"""Exact calculator for multiplier and adjoint ideals of monomial
ideals and toric weights, decided from the facets of Newton polyhedra,
with checkable certificates and numerical convergence oracles."""

__version__ = "0.1.0"

import importlib

from .lp import HypothesisError, InputError  # noqa: F401
from .newton import (NewtonPolyhedron, PointClassification,  # noqa: F401
                     build, classify, critical_scale)
from .toric import (PiecewiseLinearMin, PowerProduct,  # noqa: F401
                    classify_in_body, evaluate, exp_integrable,
                    exp_integrable_shifted, homogenized_value,
                    power_product, pwl_min, valuative_membership)
from .ideals import (AdjunctionReport, MonomialIdeal,  # noqa: F401
                     adj0_power_membership, adjoint_ideal,
                     adjunction_report, box_audit, contains,
                     intersect_axis_multiples, jumping_numbers, lct,
                     minimalize, multiplier_ideal, multiplier_ideal_toric,
                     openness_margin, restrict_to_axis, shift_by_axis)
from .parsing import (ParseError, format_ideal, format_monomial,  # noqa: F401
                      format_rational, parse_ideal, parse_monomial,
                      parse_rational, parse_toric)

# the oracle, the one module that loads numpy, loads on first use
_ORACLE_NAMES = ("ConvergenceVerdict", "OracleConfig",
                 "adjoint_weighted_integral", "orthant_exp_integral",
                 "polydisk_mc", "radial_power_integral")


def __getattr__(name: str):
    if name == "oracle" or name in _ORACLE_NAMES:
        # a `from . import oracle` here would call __getattr__ again
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
