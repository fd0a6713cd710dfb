"""magiclattice: exact lattice shells and the quantum states they define."""

from .exact import (
    EISENSTEIN_UNITS,
    GAUSSIAN_UNITS,
    EisensteinInt,
    GaussianInt,
    OMEGA,
    THETA,
    canonical_vector,
    exact_div,
    primitive_part,
    ray_reduce,
    ring_gcd,
    unit_canonicalize,
    vector_norm,
)
from .lattices import (
    EnumerationBudgetExceeded,
    Shell,
    ShellCacheError,
    build_lattice,
    coordinate_bounds,
    default_cache_dir,
    ensure_shell,
    enumerate_shell,
    load_shell,
    save_shell,
    shell_cache_path,
    solve_eisenstein_coefficients,
    stream_shell,
    theta_check,
)
from .states import (
    EmptyShellError,
    PureStateExact,
    StateSet,
    dedup,
    representatives,
    vector_to_state,
)
from .magic import (
    CensusReport,
    CensusRow,
    ExtremalBounds,
    INTERMEDIATE,
    MAX_MAGIC_MUB,
    MAX_MAGIC_SIC,
    PauliString,
    STABILISER,
    WHDisplacement,
    applicable_bounds,
    extremal_bounds,
    magic_label,
    pauli_strings,
    sre_census,
    stabiliser_count,
    wh_displacements,
    xi_alpha,
    xi_batch_gaussian,
    xi_classes,
)
from .clifford import (
    CliffordGroup,
    ClosureError,
    CorrespondenceReport,
    Orbit,
    OrbitEscapeError,
    StabiliserGroupQutrit,
    generate_clifford_qutrit,
    orbit_partition,
    stabiliser_groups_qutrit,
    stabiliser_state,
    verify_e6_correspondence,
)
from .entangle import (
    ConcurrenceArrays,
    EntanglementCensus,
    concurrence_kernel,
    entanglement_census,
    pairwise_concurrence_2qubit,
)

__version__ = "0.1.0"
