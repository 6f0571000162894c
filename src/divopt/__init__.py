"""Diversification workbench: ranking, dispersion, and dense-subset schemes.

Four approximation algorithms with shared deterministic RNG plumbing, their
brute-force oracles and greedy baselines, seeded instance generators, two
reduction-style converters, JSON persistence, and a batch bench runner.

Each module's ``__all__`` is the one list of what it exports; the package
re-exports all of them.
"""

from . import core, lp, ranking, dks, dispersion, diversification, generators, io, bench
from .core import *
from .lp import *
from .ranking import *
from .dks import *
from .dispersion import *
from .diversification import *
from .generators import *
from .io import *
from .bench import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *lp.__all__,
    *ranking.__all__,
    *dks.__all__,
    *dispersion.__all__,
    *diversification.__all__,
    *generators.__all__,
    *io.__all__,
    *bench.__all__,
    "__version__",
]
