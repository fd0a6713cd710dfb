"""magiclattice: exact lattice shells and the quantum states they define.

The public names below live in the submodules and load on first use
(PEP 562), so ``import magiclattice`` imports no submodule and, say,
``magiclattice.build_lattice`` loads only ``exact`` and ``lattices``.
"""

from importlib import import_module

# submodule -> the public names it defines
_EXPORTS = {
    "exact": (
        "EISENSTEIN_UNITS",
        "GAUSSIAN_UNITS",
        "EisensteinInt",
        "GaussianInt",
        "OMEGA",
        "THETA",
    ),
    "lattices": (
        "EnumerationBudgetExceeded",
        "Shell",
        "ShellCacheError",
        "build_lattice",
        "coordinate_bounds",
        "default_cache_dir",
        "ensure_shell",
        "enumerate_shell",
        "load_shell",
        "save_shell",
        "shell_cache_path",
        "stream_shell",
        "theta_check",
    ),
    "states": (
        "EmptyShellError",
        "PureStateExact",
        "StateSet",
        "canonical_states",
        "dedup",
        "representatives",
    ),
    "magic": (
        "CensusReport",
        "CensusRow",
        "ExtremalBounds",
        "INTERMEDIATE",
        "MAX_MAGIC_MUB",
        "MAX_MAGIC_SIC",
        "PauliString",
        "STABILISER",
        "WHDisplacement",
        "applicable_bounds",
        "extremal_bounds",
        "magic_label",
        "pauli_strings",
        "sre_census",
        "stabiliser_count",
        "wh_displacements",
        "xi_alpha",
        "xi_batch_gaussian",
        "xi_classes",
    ),
    "clifford": (
        "CliffordGroup",
        "ClosureError",
        "CorrespondenceReport",
        "Orbit",
        "OrbitEscapeError",
        "generate_clifford_qutrit",
        "orbit_partition",
        "verify_e6_correspondence",
    ),
    "entangle": (
        "ConcurrenceArrays",
        "EntanglementCensus",
        "concurrence_kernel",
        "entanglement_census",
        "pairwise_concurrence_2qubit",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
