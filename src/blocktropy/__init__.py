"""Plug-in entropy estimation, type counting, and rate functions for
finite-memory equilibrium measures.

The package splits into small layers: ``blocks`` (word coding and block
distributions), ``entropy`` (plug-in estimators), ``typegraphs``
(method-of-types combinatorics on word graphs), ``pressure`` (transfer
operators and equilibrium states), ``rates`` (cumulant and rate functions),
``simulate`` (seeded path sampling), ``harness`` (end-to-end experiments),
and ``cli`` (the ``blocktropy`` command).

The package namespace is the union of the layer modules' ``__all__`` lists.
The alias imports load every module first, so the star-imports after them
rebind ``pressure`` from the submodule to the function.
"""

from . import blocks as _blocks
from . import entropy as _entropy
from . import harness as _harness
from . import pressure as _pressure
from . import rates as _rates
from . import simulate as _simulate
from . import typegraphs as _typegraphs
from .blocks import *  # noqa: F401,F403
from .entropy import *  # noqa: F401,F403
from .harness import *  # noqa: F401,F403
from .pressure import *  # noqa: F401,F403
from .rates import *  # noqa: F401,F403
from .simulate import *  # noqa: F401,F403
from .typegraphs import *  # noqa: F401,F403

__version__ = "0.1.0"

_LAYERS = (_blocks, _entropy, _harness, _pressure, _rates, _simulate, _typegraphs)

__all__ = ["__version__"] + [name for layer in _LAYERS for name in layer.__all__]
