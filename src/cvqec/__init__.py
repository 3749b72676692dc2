"""Continuous-variable entanglement-assisted codes over real phase space.

Builds codes from arbitrary real parity-check matrices, decodes
displacement-error syndromes, compiles encoding transformations into
linear-optics gate sequences, and runs seeded error-correction
experiments with finite-squeezing homodyne readout in closed form.

The package namespace holds the library example's functions; everything
else is imported from its module (`cvqec.codes`, `cvqec.compiler`, ...).
"""

from .codes import build_code
from .decoder import decode_single_mode, single_mode_error, syndrome
from .compiler import decompose
from .simulator import run_ec_experiment
from . import errors, reference

__version__ = "0.1.0"
