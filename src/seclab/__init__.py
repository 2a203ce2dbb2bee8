"""Finite-scale laboratory for sections of group extensions and their
local-global interpolation properties.

The package republishes every module's public names, so ``from seclab
import ...`` reaches each of them; each module's ``__all__`` is the one list.
"""

from __future__ import annotations

from .errors import *
from .groups import *
from .cohomology import *
from .extensions import *
from .localglobal import *
from .catalog import *
from .manifest import *

__version__ = "0.1.0"

# importing a submodule also binds its name here, so its list is in reach
__all__ = [
    *errors.__all__,
    *groups.__all__,
    *cohomology.__all__,
    *extensions.__all__,
    *localglobal.__all__,
    *catalog.__all__,
    *manifest.__all__,
    "__version__",
]
