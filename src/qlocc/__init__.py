"""Two-qubit entanglement under single-copy local operations.

Concurrence and entanglement of formation, local filtering channels with
their exact transformation law, search certificates showing Werner and
Bell-diagonal entanglement cannot grow under single-copy filtering, and
the collective two-copy recurrence that can.
"""

__version__ = "0.1.0"

from qlocc._kernels import BACKEND
from qlocc.entanglement import (
    InvariantRatios,
    LambdaSpectrum,
    concurrence,
    entanglement_of_formation,
    invariant_ratios,
    lambda_spectrum,
    spin_flip,
)
from qlocc.locc import (
    LocalFilter,
    LocalOperation,
    LoccOutcome,
    NormalForm,
    apply_local_pair,
    closed_form_t,
    decompose_local_op,
    filter_matrix,
    normal_form,
    predicted_concurrence,
)
from qlocc.nogo import (
    Certificate,
    SearchConfig,
    maximize_concurrence_gain,
    probability_floor,
    procrustean_pure,
    randomization_convexity_check,
)
from qlocc.protocols import RecurrenceTrace, collective_step, iterate_to_target
from qlocc.states import (
    DensityMatrix,
    PauliRep,
    PureState,
    fidelity,
    from_pauli,
    make_bell_diagonal,
    make_werner,
    to_pauli,
    validate,
)

__all__ = [
    "BACKEND",
    "Certificate",
    "DensityMatrix",
    "InvariantRatios",
    "LambdaSpectrum",
    "LocalFilter",
    "LocalOperation",
    "LoccOutcome",
    "NormalForm",
    "PauliRep",
    "PureState",
    "RecurrenceTrace",
    "SearchConfig",
    "apply_local_pair",
    "closed_form_t",
    "collective_step",
    "concurrence",
    "decompose_local_op",
    "entanglement_of_formation",
    "fidelity",
    "filter_matrix",
    "from_pauli",
    "invariant_ratios",
    "iterate_to_target",
    "lambda_spectrum",
    "make_bell_diagonal",
    "make_werner",
    "maximize_concurrence_gain",
    "normal_form",
    "predicted_concurrence",
    "probability_floor",
    "procrustean_pure",
    "randomization_convexity_check",
    "spin_flip",
    "to_pauli",
    "validate",
]
