"""Power-generalized DUS lifetime distributions.

A numpy/scipy library around the PGDUS transform of the exponential
baseline (the PGDUSE distribution) and its four companion models (GDUSE,
DUSE, KME, ED): the full distribution-function surface, series and
quadrature analytics, maximum-likelihood fitting, and goodness-of-fit
model comparison, plus a small CLI (``pgduse --help``).  Each module
lists its public names in its ``__all__`` (``errors`` exports every
exception class it defines), and the package re-exports them all.
Importing it loads numpy only; each scipy module loads in the first call
that needs it.
"""

__version__ = "0.1.0"

from .analytic import *
from .datasets import *
from .distributions import *
from .errors import *
from .estimation import *
from .model_selection import *
from .order_statistics import *

__all__ = [name for name in dir() if not name.startswith("_")]
