"""Exact symbolic tetrahedral graph flows on polynomial Poisson bi-vectors.

The package provides one exact sparse rational polynomial type (with a
trailing formal slot used for eps and for the spectral parameter lam),
skew multi-vectors with the Schouten bracket and Jacobi test, a graph DSL
with one contraction engine that computes the two tetrahedral flows and the
bracket as graph sums, three generators of polynomial Poisson structures, and
the verification experiments over them (compatibility grids, the exact 1:6
ratio solver, the eps-perturbation probe).
"""

from .analysis import (
    CompatReport,
    RatioSolution,
    compat_report,
    find_ratios,
    perturb_probe,
    reproduce_tables,
)
from .generators import (
    DetSpec,
    VanhaeckeSpec,
    build_bivector,
    det_bracket,
    form_obstruction,
    premultiply,
    vanhaecke_bracket,
)
from .graphflow import (
    FlowResult,
    KGraph,
    balanced_flow,
    evaluate_kgraph,
    gamma1,
    gamma2,
    parse_kgraph,
    render_kgraph,
)
from .multivector import (
    MultiVector,
    RawMatrix,
    bivector_from_raw,
    is_poisson,
    jacobiator,
    mv_linear_combination,
    schouten,
)
from .polyring import Context, Polynomial

__version__ = "0.1.0"

__all__ = [
    "CompatReport",
    "Context",
    "DetSpec",
    "FlowResult",
    "KGraph",
    "MultiVector",
    "Polynomial",
    "RatioSolution",
    "RawMatrix",
    "VanhaeckeSpec",
    "balanced_flow",
    "bivector_from_raw",
    "build_bivector",
    "compat_report",
    "det_bracket",
    "evaluate_kgraph",
    "find_ratios",
    "form_obstruction",
    "gamma1",
    "gamma2",
    "is_poisson",
    "jacobiator",
    "mv_linear_combination",
    "parse_kgraph",
    "perturb_probe",
    "premultiply",
    "render_kgraph",
    "reproduce_tables",
    "schouten",
    "vanhaecke_bracket",
]
