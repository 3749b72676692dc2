"""Continuous-variable entanglement-assisted codes over real phase space.

Builds codes from arbitrary real parity-check matrices, decodes
displacement-error syndromes, compiles encoding transformations into
linear-optics gate sequences, and validates the whole pipeline on a
Gaussian-state simulator with homodyne feedforward.
"""

from .symplectic import (
    DEFAULT_TOL,
    is_symplectic,
    swap_halves,
    symplectic_form,
    symplectic_product,
)
from .decomposition import (
    SymplecticDecomposition,
    code_parameters,
    complete_symplectic_basis,
    symplectic_gram_schmidt,
)
from .codes import (
    CodeParameters,
    CodeSpec,
    build_code,
    canonical_parity_check,
    load_code,
    load_parity_check,
    save_parity_check,
)
from .decoder import (
    Correction,
    decode_single_mode,
    is_correctable_pair,
    min_norm_correction,
    single_mode_error,
    syndrome,
)
from .compiler import (
    Circuit,
    CompilerReport,
    Gate,
    apply_gate,
    circuit_action,
    decompose,
    encoder_quad_action,
    fourier,
    fourier_inv,
    gate_action,
    invert_circuit,
    load_circuit,
    phase_p,
    phase_x,
    qnd_p,
    qnd_x,
    squeeze,
    swap,
    verify_circuit,
)
from .simulator import (
    ExperimentStats,
    GaussianState,
    HomodyneRecord,
    apply_circuit,
    balanced_beamsplitter,
    displace,
    displace_error,
    epr_pair,
    homodyne,
    phase_gate_protocol,
    position_squeezed,
    run_ec_experiment,
    tensor,
    uncertainty_defect,
    vacuum,
)
from . import errors, reference

__version__ = "0.1.0"
