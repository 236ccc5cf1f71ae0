"""Numerical laboratory for Dirichlet series: pointwise evaluation with
certified truncation tails, mean-value (moment) experiments, Kronecker torus
flows, and argument-principle zero scans, all with thread-count-independent
results.

The public names are those of each module's __all__.
"""

__version__ = "0.1.0"

from . import (
    coefficients,
    convolution,
    errors,
    moments,
    parallel,
    primes,
    series,
    torus,
    zeros,
    zeta,
)
from .coefficients import *
from .convolution import *
from .errors import *
from .moments import *
from .parallel import *
from .primes import *
from .series import *
from .torus import *
from .zeros import *
from .zeta import *

_MODULES = (coefficients, convolution, errors, moments, parallel, primes, series, torus, zeros, zeta)
__all__ = sorted(name for module in _MODULES for name in module.__all__)
