"""Numerical laboratory for Dirichlet series: pointwise evaluation with
certified truncation tails, mean-value (moment) experiments, Kronecker torus
flows, and argument-principle zero scans, all with thread-count-independent
results.
"""

__version__ = "0.1.0"

from .coefficients import (
    CoefficientSource,
    ExplicitSource,
    MultiplicativeSource,
    SeriesSpec,
    builtin_series,
    load_source,
)
from .convolution import (
    convolution_power,
    dirichlet_convolve,
    identity_coefficients,
    inverse_coefficients,
    mollifier_coefficients,
)
from .errors import AccuracyWarning, NumericalError, PreconditionError
from .moments import MomentReport, QuadratureConfig, estimate_moment, theoretical_target
from .parallel import resolve_threads
from .primes import SmoothSet, factorize, first_primes, log_frequencies, smooth_enumerate
from .series import (
    default_evaluator,
    smooth_truncation_eval,
    tail_norm,
    twisted_eval,
)
from .torus import (
    Box,
    FlowConfig,
    TorusPoint,
    box_hitting_fraction,
    box_hitting_fractions,
    standard_box_suite,
)
from .zeros import (
    Rectangle,
    RecurrenceReport,
    ZeroRecord,
    density_table,
    mollifier_tail_decay,
    recurrence_scan,
    rouche_verify,
    winding_count,
    winding_on_circle,
    zero_scan,
)
from .zeta import zeta_eval, zeta_values

__all__ = [
    "AccuracyWarning",
    "Box",
    "CoefficientSource",
    "ExplicitSource",
    "FlowConfig",
    "MomentReport",
    "MultiplicativeSource",
    "NumericalError",
    "PreconditionError",
    "QuadratureConfig",
    "Rectangle",
    "RecurrenceReport",
    "SeriesSpec",
    "SmoothSet",
    "TorusPoint",
    "ZeroRecord",
    "box_hitting_fraction",
    "box_hitting_fractions",
    "builtin_series",
    "convolution_power",
    "default_evaluator",
    "density_table",
    "dirichlet_convolve",
    "estimate_moment",
    "factorize",
    "first_primes",
    "identity_coefficients",
    "inverse_coefficients",
    "load_source",
    "log_frequencies",
    "mollifier_coefficients",
    "mollifier_tail_decay",
    "recurrence_scan",
    "resolve_threads",
    "rouche_verify",
    "smooth_enumerate",
    "smooth_truncation_eval",
    "standard_box_suite",
    "tail_norm",
    "theoretical_target",
    "twisted_eval",
    "winding_count",
    "winding_on_circle",
    "zero_scan",
    "zeta_eval",
    "zeta_values",
]
