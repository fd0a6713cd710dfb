"""Single-qutrit Clifford group, orbit partitions, stabiliser groups.

The group is held as integer arrays: each element is an exact Eisenstein
matrix E with a scale exponent k, representing the unitary E / theta^k up
to global phase (theta = i*sqrt(3), so E.E^dagger = 3^k * I).  Elements
and states are both compared by their exact ray keys (states.ray_keys),
which are equal iff two matrices, read as 9-vectors, or two state
vectors differ by a nonzero scalar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exact import EISENSTEIN_UNITS, EisensteinInt, OMEGA, THETA
from .lattices import HeadroomError, packed_keys, ring_conj, ring_matmul, ring_mul, solve_eisenstein_coefficients
from .magic import WHDisplacement
from .states import PureStateExact, StateSet, ray_keys, vector_to_state

Matrix = tuple[tuple[EisensteinInt, ...], ...]

_ZERO = EisensteinInt(0)
_ONE = EisensteinInt(1)
_OMEGA2 = OMEGA * OMEGA

H_ENTRIES: Matrix = (
    (_ONE, _ONE, _ONE),
    (_ONE, OMEGA, _OMEGA2),
    (_ONE, _OMEGA2, OMEGA),
)
S_ENTRIES: Matrix = (
    (_ONE, _ZERO, _ZERO),
    (_ZERO, _ONE, _ZERO),
    (_ZERO, _ZERO, OMEGA),
)
IDENTITY_ENTRIES: Matrix = (
    (_ONE, _ZERO, _ZERO),
    (_ZERO, _ONE, _ZERO),
    (_ZERO, _ZERO, _ONE),
)


class ClosureError(RuntimeError):
    """Breadth-first closure left the expected group size."""


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(3)), _ZERO) for j in range(3)
        )
        for i in range(3)
    )


def _matrix_array(m: Matrix) -> np.ndarray:
    """(3, 3, 2) int64 coordinates (a, b) of an Eisenstein matrix."""
    return np.array([[z.coords() for z in row] for row in m], dtype=np.int64)


def _theta_reduce(entries: np.ndarray, theta_power: np.ndarray) -> None:
    """Divide each matrix of (M, 3, 3, 2) entries by theta, in place, while
    its theta_power is positive and theta divides every entry.

    theta = 1 + 2w divides a + b w iff a + b = 0 mod 3, and then
    (a + b w) / theta = (a + b w)(-theta) / 3."""
    minus_theta = (-THETA).coords()
    while True:
        divisible = theta_power > 0
        divisible &= ~(entries.sum(axis=-1) % 3).any(axis=(1, 2))
        if not divisible.any():
            return
        x, y = ring_mul(entries[divisible, ..., 0], entries[divisible, ..., 1], *minus_theta, "eisenstein")
        entries[divisible] = np.stack((x // 3, y // 3), axis=-1)
        theta_power[divisible] -= 1


_GROUP_ORDER = 216  # d^3 (d^2 - 1) at d = 3


@dataclass(frozen=True, eq=False)
class CliffordGroup:
    """The phase-quotiented single-qutrit Clifford group: element k is the
    unitary entries[k] / theta**theta_power[k], up to global phase, with
    entries[k, i, j] the (a, b) of the Eisenstein integer a + b*omega."""

    entries: np.ndarray  # (216, 3, 3, 2) int64
    theta_power: np.ndarray  # (216,) int64

    def __len__(self) -> int:
        return len(self.entries)


def _closure(generators: np.ndarray, theta_power: np.ndarray) -> CliffordGroup:
    """Breadth-first closure of the (G, 3, 3, 2) generators with their
    theta powers, from the identity: each level multiplies its whole
    frontier by every generator, divides out theta as far as every entry
    of a product allows, and keeps the products whose key is new, in
    (frontier element, generator) order.

    ClosureError as soon as the closure passes _GROUP_ORDER or when it
    stops short of it; ValueError unless every element E with scale k has
    E.E^dagger = 3^k I."""
    frontier = _matrix_array(IDENTITY_ENTRIES)[None]
    frontier_theta = np.zeros(1, np.int64)
    seen = {tuple(ray_keys(frontier.reshape(1, 9, 2), "eisenstein").ravel().tolist())}
    levels, powers = [frontier], [frontier_theta]
    while len(frontier):
        products = ring_matmul(frontier[:, None], generators, "eisenstein").reshape(-1, 3, 3, 2)
        product_theta = (frontier_theta[:, None] + theta_power).ravel()
        _theta_reduce(products, product_theta)
        keys = ray_keys(products.reshape(-1, 9, 2), "eisenstein").reshape(len(products), 18)
        new = []
        for index, key in enumerate(map(tuple, keys.tolist())):
            if key not in seen:
                if len(seen) >= _GROUP_ORDER:
                    raise ClosureError(f"closure grew past {_GROUP_ORDER} elements")
                seen.add(key)
                new.append(index)
        frontier, frontier_theta = products[new], product_theta[new]
        levels.append(frontier)
        powers.append(frontier_theta)
    if len(seen) != _GROUP_ORDER:
        raise ClosureError(f"closure stopped at {len(seen)} != {_GROUP_ORDER}")
    entries, theta = np.concatenate(levels), np.concatenate(powers)
    dagger = np.stack(ring_conj(entries[..., 0], entries[..., 1], "eisenstein"), axis=-1).swapaxes(1, 2)
    target = np.zeros_like(entries)
    target[:, [0, 1, 2], [0, 1, 2], 0] = (3**theta)[:, None]
    if not (ring_matmul(entries, dagger, "eisenstein") == target).all():
        raise ValueError("entries are not unitary at scale theta^k")
    for array in (entries, theta):
        array.flags.writeable = False
    return CliffordGroup(entries, theta)


def generate_clifford_qutrit() -> CliffordGroup:
    """Breadth-first closure of {H, S}: the 216 phase-quotiented
    single-qutrit Clifford elements, in deterministic BFS order."""
    generators = np.stack([_matrix_array(H_ENTRIES), _matrix_array(S_ENTRIES)])
    return _closure(generators, np.array([1, 0], dtype=np.int64))


@dataclass(frozen=True)
class Orbit:
    representative: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


class OrbitEscapeError(RuntimeError):
    def __init__(self, state: PureStateExact, image: PureStateExact):
        self.state = state
        self.image = image
        super().__init__(
            f"orbit of {state.components} escapes the given set at {image.components}"
        )


def _images(group: CliffordGroup, coords: np.ndarray) -> np.ndarray:
    """(216, 3, 2): the Eisenstein vector with (3, 2) coords under every
    element of the group, theta scale and phase left in."""
    return ring_matmul(group.entries, coords[:, None], "eisenstein").reshape(len(group), 3, 2)


def _single_column(keys: np.ndarray) -> np.ndarray:
    """(N,) sortable keys from (N, W) packed_keys words: the one word, or a
    record of the W words, which numpy orders lexicographically."""
    if keys.shape[1] == 1:
        return keys[:, 0]
    return np.ascontiguousarray(keys).view([(f"w{i}", np.int64) for i in range(keys.shape[1])])[:, 0]


def orbit_partition(state_set: StateSet, group: CliffordGroup | None = None) -> list[Orbit]:
    """Partition qutrit states into Clifford orbits, largest first; each
    orbit's representative is its least index.

    States and images are matched on ray keys, so a theta or phase the
    Clifford action puts on an image does not matter.  The states' keys
    are sorted once; then each state not yet in an orbit has its images
    under the whole group computed in one product and looked up in them.

    A coordinate of an image U.c is a sum of at most 9 products of a
    coordinate of U and one of c, so it is below 9 max|U| max|c| in
    absolute value.  Below 2**30 that keeps the product exact in int64,
    and the keys of images and states too (ray_keys); HeadroomError past
    it.  Raises ValueError when two of the states lie on one ray, and
    OrbitEscapeError when an image is not one of the states."""
    coords = state_set.components
    if state_set.ring != "eisenstein" or coords.shape[1] != 3:
        raise ValueError("orbit_partition expects single-qutrit states")
    if not len(coords):
        return []
    if group is None:
        group = generate_clifford_qutrit()
    if 9 * int(np.abs(group.entries).max()) * int(np.abs(coords).max()) >= 2**30:
        raise HeadroomError("states past the int64 headroom of the Clifford images")

    count = len(coords)
    state_keys = ray_keys(coords, "eisenstein").reshape(count, 6)
    bounds = np.abs(state_keys).max(axis=0)
    keys = _single_column(packed_keys(state_keys, bounds))
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    repeats = np.flatnonzero(ordered[1:] == ordered[:-1])
    if len(repeats):
        i = int(order[repeats + 1].min())
        j = int(order[np.searchsorted(ordered, keys[i])])
        raise ValueError(f"states {j} and {i} lie on one ray, so their orbits cannot partition the set")

    assigned = np.zeros(count, dtype=bool)
    orbits: list[Orbit] = []
    for start in range(count):
        if assigned[start]:
            continue
        images = _images(group, coords[start])
        image_keys = ray_keys(images, "eisenstein").reshape(len(group), 6)
        found = (np.abs(image_keys) <= bounds).all(axis=1)  # a key past the bounds is no state's
        packed = _single_column(packed_keys(image_keys[found], bounds))
        at = np.searchsorted(ordered, packed).clip(max=count - 1)
        found[found] = ordered[at] == packed
        if not found.all():
            miss = images[int(np.argmin(found))].tolist()
            raise OrbitEscapeError(state_set[start], vector_to_state(tuple(EisensteinInt(*z) for z in miss)))
        # sorted and deduplicated by one sort and one diff, which is what
        # np.unique would do here (with numpy 2.4 its first call in a
        # process takes about 0.3 ms and imports no further module)
        members = np.sort(order[at])
        members = members[np.diff(members, prepend=-1) != 0]
        assigned[members] = True
        orbits.append(Orbit(representative=start, members=tuple(members.tolist())))
    orbits.sort(key=lambda o: (-o.size, o.representative))
    return orbits


# ---------------------------------------------------------------------------
# stabiliser groups


@dataclass(frozen=True)
class StabiliserGroupQutrit:
    phase_power: int  # s in omega^s * D
    displacement: WHDisplacement

    def generator_matrix(self) -> Matrix:
        m = self.displacement.matrix()
        phase = (_ONE, OMEGA, _OMEGA2)[self.phase_power % 3]
        return tuple(tuple(z * phase for z in row) for row in m)

    def element_matrices(self) -> tuple[Matrix, Matrix, Matrix]:
        g = self.generator_matrix()
        return (IDENTITY_ENTRIES, g, _mat_mul(g, g))

    def validate(self) -> None:
        """Order 3, abelian, and no nontrivial scalar element."""
        ident, g, g2 = self.element_matrices()
        if _mat_mul(g, g2) != ident:
            raise ValueError("generator does not have order 3")
        if _mat_mul(g, g2) != _mat_mul(g2, g):
            raise ValueError("group is not abelian")
        for m in (g, g2):
            if _is_scalar(m):
                raise ValueError("group contains a nontrivial scalar element")


def _is_scalar(m: Matrix) -> bool:
    if any(not m[i][j].is_zero() for i in range(3) for j in range(3) if i != j):
        return False
    return m[0][0] == m[1][1] == m[2][2]


def stabiliser_groups_qutrit() -> list[StabiliserGroupQutrit]:
    """The 12 scalar-free maximal abelian WH subgroups, in the fixed
    order: generators D(1,0), D(0,1), D(1,1), D(1,2), each with phases
    omega^0, omega^1, omega^2."""
    groups = []
    for a1, a2 in ((1, 0), (0, 1), (1, 1), (1, 2)):
        for s in range(3):
            grp = StabiliserGroupQutrit(phase_power=s, displacement=WHDisplacement(3, a1, a2))
            grp.validate()
            groups.append(grp)
    return groups


def stabiliser_state(group: StabiliserGroupQutrit) -> PureStateExact:
    """The unique +1 eigenstate, via the (unnormalized) projector
    1 + s + s^2 applied to the first basis vector it does not kill."""
    ident, g, g2 = group.element_matrices()
    proj = tuple(
        tuple(ident[i][j] + g[i][j] + g2[i][j] for j in range(3)) for i in range(3)
    )
    for col in range(3):
        image = tuple(proj[i][col] for i in range(3))
        if any(not z.is_zero() for z in image):
            return vector_to_state(image)
    raise RuntimeError("projector annihilated every basis vector")


# ---------------------------------------------------------------------------
# correspondence with the shortest shell


@dataclass(frozen=True)
class CorrespondenceReport:
    ok: bool
    vectors_covered: int
    betas: tuple[tuple[tuple[int, int], ...], ...]
    mismatches: tuple[str, ...]


def verify_e6_correspondence(states: StateSet) -> CorrespondenceReport:
    """Check that the 12 qutrit stabiliser states, scaled to norm 3, are
    exactly the states of the E6 l=3 StateSet, and that each scaled state
    has integral lattice coefficients.  Each state stands for its |units|
    shortest vectors (states.canonical_states checks that count), so the
    matched states cover 6 vectors each."""
    if (states.lattice_name, states.norm) != ("E6", 3):
        raise ValueError(f"expected the E6 l=3 states, got {states!r}")
    shell_states = {state.components for state in states}

    mismatches: list[str] = []
    matched: set[tuple] = set()
    betas: list[tuple[tuple[int, int], ...]] = []
    for group in stabiliser_groups_qutrit():
        state = stabiliser_state(group)
        comps = state.components
        if state.norm_sq == 1:
            comps = tuple(z * THETA for z in comps)
        elif state.norm_sq != 3:
            mismatches.append(
                f"state {state.components} has norm {state.norm_sq}, expected 1 or 3"
            )
            continue
        beta = solve_eisenstein_coefficients(comps)
        if beta is None:
            mismatches.append(f"no lattice coefficients for {comps}")
            betas.append(())
        else:
            betas.append(tuple(b.coords() for b in beta))
        canonical = vector_to_state(comps).components
        if canonical in shell_states:
            matched.add(canonical)
        else:
            mismatches.append(f"state {comps} is not among the E6 l=3 states")
    if len(matched) != len(shell_states):
        missing = len(shell_states) - len(matched)
        mismatches.append(f"{missing} E6 l=3 states not reached by any stabiliser state")
    return CorrespondenceReport(
        ok=not mismatches,
        vectors_covered=len(EISENSTEIN_UNITS) * len(matched),
        betas=tuple(betas),
        mismatches=tuple(mismatches),
    )
