"""Symmetry-first quantum and relativity toolkit.

Finite-group representations and density-matrix reconstruction from
symmetry averages, a symmetry-operator interferometer model, a
special-relativity boost calculator, and exact bracket-table
contraction from the relativistic to the nonrelativistic algebra.
"""

from . import catalog, contraction, grouprep, mzi, relsim, selftest, symmetry_state
from .contraction import (
    ccr_check,
    contract,
    galilean_table,
    jacobi_residual,
    poincare_table,
    weak_boost_transform,
)
from .errors import RBWError
from .grouprep import (
    GroupSpec,
    Irrep,
    load_group,
    load_irrep,
    load_irreps,
    orthogonality_residual,
    resolution_identity,
    verify_irrep,
)
from .mzi import (
    beam_splitter_op,
    density_from_sweep,
    expectation_T,
    hamiltonian_expectation,
    reflection_op,
    run_pipeline,
    translation_op,
)
from .relsim import (
    Boost,
    SpacetimeEvent,
    boost_event,
    corealness_chain,
    gamma,
    interval_class,
    simultaneity_classes,
)
from .symmetry_state import (
    eigendecompose,
    expand_eigenket,
    expectations_from_state,
    outcome_probabilities,
    reconstruct_density,
)

__version__ = "1.0.0"

__all__ = [
    "Boost",
    "GroupSpec",
    "Irrep",
    "RBWError",
    "SpacetimeEvent",
    "__version__",
    "beam_splitter_op",
    "boost_event",
    "catalog",
    "ccr_check",
    "contract",
    "contraction",
    "corealness_chain",
    "density_from_sweep",
    "eigendecompose",
    "expand_eigenket",
    "expectation_T",
    "expectations_from_state",
    "galilean_table",
    "gamma",
    "grouprep",
    "hamiltonian_expectation",
    "interval_class",
    "jacobi_residual",
    "load_group",
    "load_irrep",
    "load_irreps",
    "mzi",
    "orthogonality_residual",
    "outcome_probabilities",
    "poincare_table",
    "reconstruct_density",
    "reflection_op",
    "relsim",
    "resolution_identity",
    "run_pipeline",
    "selftest",
    "simultaneity_classes",
    "symmetry_state",
    "translation_op",
    "verify_irrep",
    "weak_boost_transform",
]
