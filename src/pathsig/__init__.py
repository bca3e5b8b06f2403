"""Path-signature tools for lead-lag and influence analysis of time series."""

from __future__ import annotations

__version__ = "0.1.0"

from . import causality, dynamics, leadlag, path_core, signature
from . import tensor_algebra

# the package exports each module's public names; computed before the star
# imports, which rebind `signature` from the module to the function
_MODULES = (tensor_algebra, path_core, signature, leadlag, causality, dynamics)
__all__ = ["__version__"] + [n for m in _MODULES for n in m.__all__]
del _MODULES

from .tensor_algebra import *  # noqa: E402,F401,F403
from .path_core import *  # noqa: E402,F401,F403
from .signature import *  # noqa: E402,F401,F403
from .leadlag import *  # noqa: E402,F401,F403
from .causality import *  # noqa: E402,F401,F403
from .dynamics import *  # noqa: E402,F401,F403
