"""Score inference from paired comparisons.

Exponential tilting of a symmetric comparison law turns score differences
into comparison distributions; this package fits the reverse map with a
certified strongly convex solver and ships the diagnostics (monotonicity,
bounded influence of single edits, neutral comparisons) that make the
estimator auditable.

Each module's ``__all__`` is its export list; the package re-exports the
union of those lists and adds nothing of its own but ``__version__``.
"""

__version__ = "0.1.0"

from . import comparisons, diagnostics, errors, rootlaws, sim, solver
from .comparisons import *  # noqa: F401,F403
from .diagnostics import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .rootlaws import *  # noqa: F401,F403
from .sim import *  # noqa: F401,F403
from .solver import *  # noqa: F401,F403

__all__ = ["__version__", *comparisons.__all__, *diagnostics.__all__, *errors.__all__,
           *rootlaws.__all__, *sim.__all__, *solver.__all__]
