"""Symmetry-first quantum and relativity toolkit.

Finite-group representations and density-matrix reconstruction from
symmetry averages, a symmetry-operator interferometer model, a
special-relativity boost calculator, and exact bracket-table
contraction from the relativistic to the nonrelativistic algebra.

`import rbw` loads nothing else: each submodule, and each name
re-exported below, is imported on first access (PEP 562), so code that
only boosts events never pays for numpy.
"""

import importlib

__version__ = "1.0.0"

# home module of every re-exported name; a submodule is its own home
_HOME = {
    **{m: m for m in ("catalog", "contraction", "grouprep", "mzi", "relsim",
                      "selftest", "symmetry_state")},
    **dict.fromkeys(("ccr_check", "contract", "galilean_table", "jacobi_residual",
                     "poincare_table"), "contraction"),
    "RBWError": "errors",
    **dict.fromkeys(("GroupSpec", "Irrep", "load_group", "load_irrep", "load_irreps",
                     "orthogonality_residual", "resolution_identity", "verify_irrep"),
                    "grouprep"),
    **dict.fromkeys(("beam_splitter_op", "density_from_sweep", "expectation_T",
                     "hamiltonian_expectation", "reflection_op", "run_pipeline",
                     "translation_op"), "mzi"),
    **dict.fromkeys(("Boost", "SpacetimeEvent", "boost_event", "corealness_chain",
                     "gamma", "interval_class", "simultaneity_classes",
                     "weak_boost_transform"), "relsim"),
    **dict.fromkeys(("eigendecompose", "expand_eigenket", "expectations_from_state",
                     "outcome_probabilities", "reconstruct_density"), "symmetry_state"),
}

__all__ = sorted([*_HOME, "__version__"])


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
