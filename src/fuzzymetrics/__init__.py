"""Metrics and compactness diagnostics for fuzzy numbers via alpha-cuts."""

__version__ = "0.1.0"

from . import bodies, core, counterexample, errors, family, metrics
from .core import *  # noqa: F403
from .bodies import *  # noqa: F403
from .metrics import *  # noqa: F403
from .family import *  # noqa: F403
from .counterexample import *  # noqa: F403
from .errors import *  # noqa: F403

__all__ = [
    "__version__",
    *core.__all__,
    *bodies.__all__,
    *metrics.__all__,
    *family.__all__,
    *counterexample.__all__,
    *errors.__all__,
]
