"""Finite-volume kinetic schemes for the bistable reaction-diffusion equation with relaxation.

The package's ``__all__`` is the union of its modules' ``__all__``: each public
name is declared once, in its module.
"""

from . import diagnostics, grid, model, scenarios, schemes, timestepping
from .diagnostics import *
from .grid import *
from .model import *
from .scenarios import *
from .schemes import *
from .timestepping import *

_MODULES = (diagnostics, grid, model, scenarios, schemes, timestepping)
__all__ = [name for module in _MODULES for name in module.__all__]
__version__ = "0.1.0"
