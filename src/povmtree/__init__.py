"""Binary measurement trees for generalized quantum measurements.

Any N-outcome POVM on a d-dimensional system can be performed as a sequence
of ceil(log2 N) two-outcome measurements, each realized by coupling the
system to a single probe qubit and measuring the probe.  This package builds
that tree for an arbitrary POVM, synthesizes the 2d x 2d probe-coupling
unitary at every node, and checks the construction against direct Born-rule
probabilities and a one-shot projective extension, both exactly and by
seeded Monte Carlo sampling.
"""

from .cost import CostReport, compare, crossover
from .dilation import NeumarkExtension, dilate_binary, full_neumark
from .errors import ParseError, PovmTreeError, ValidationError, VerificationError
from .linalg import (
    complete_to_unitary,
    hermitian_eig,
    pseudo_inverse,
    psd_sqrt,
    random_unitary,
)
from .povm import (
    Povm,
    apply_freedom,
    default_kraus,
    random_povm,
    random_rank_one_povm,
    tetrad,
    validate,
)
from .records import VerificationReport
from .simulator import (
    QuantumState,
    SampleReport,
    SimulationOutcome,
    direct_probabilities,
    propagate,
    random_density,
    sample,
)
from .tree import (
    MeasurementTree,
    compile_tree,
    node_path,
    null_space_isometry,
    split_node,
    verify,
)

__version__ = "0.1.0"

__all__ = [
    "CostReport",
    "MeasurementTree",
    "NeumarkExtension",
    "ParseError",
    "Povm",
    "PovmTreeError",
    "QuantumState",
    "SampleReport",
    "SimulationOutcome",
    "ValidationError",
    "VerificationError",
    "VerificationReport",
    "apply_freedom",
    "compare",
    "compile_tree",
    "complete_to_unitary",
    "crossover",
    "default_kraus",
    "dilate_binary",
    "direct_probabilities",
    "full_neumark",
    "hermitian_eig",
    "node_path",
    "null_space_isometry",
    "propagate",
    "pseudo_inverse",
    "psd_sqrt",
    "random_density",
    "random_povm",
    "random_rank_one_povm",
    "random_unitary",
    "sample",
    "split_node",
    "tetrad",
    "validate",
    "verify",
]
