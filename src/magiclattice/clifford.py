"""Single-qutrit Clifford group, orbit partitions, stabiliser states.

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

from .exact import EISENSTEIN_UNITS, THETA
from .lattices import UNIT_COORDS, HeadroomError, packed_keys, ring_conj, ring_matmul, ring_mul
from .states import StateSet, canonical_coords, ray_keys

_OMEGA_POWERS = UNIT_COORDS["eisenstein"][:3]  # (1, 0), (0, 1), (-1, -1): 1, omega, omega^2
_MINUS_THETA = (-THETA).coords()
_EYE = np.eye(3, dtype=np.int64)[..., None]


def _monomial(shift: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """(G, 3, 3, 2): matrix g has entry (j, j + shift[g] mod 3) equal to
    omega^powers[g, j], and zeros elsewhere."""
    out = np.zeros((len(powers), 3, 3, 2), np.int64)
    j = np.arange(3)
    out[np.arange(len(powers))[:, None], j, (j + shift[:, None]) % 3] = _OMEGA_POWERS[powers % 3]
    return out


# (3, 3, 2) coordinates of the identity, H = (omega^(jk)) and S = diag(1, 1, omega)
IDENTITY_ENTRIES, S_ENTRIES = _monomial(np.zeros(2, np.int64), np.array([[0, 0, 0], [0, 0, 1]]))
H_ENTRIES = _OMEGA_POWERS[np.outer(np.arange(3), np.arange(3)) % 3]


class ClosureError(RuntimeError):
    """Breadth-first closure left the expected group size."""


def _over_theta(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eisenstein coordinates (..., 2) divided by theta, and whether theta
    divides each element: theta = 1 + 2w divides a + b w iff a + b = 0
    mod 3, and then (a + b w) / theta = (a + b w)(-theta) / 3.  Where it
    does not divide, the quotient is meaningless."""
    x, y = ring_mul(z[..., 0], z[..., 1], *_MINUS_THETA, "eisenstein")
    return np.stack((x // 3, y // 3), axis=-1), z.sum(axis=-1) % 3 == 0


def _theta_reduce(entries: np.ndarray, theta_power: np.ndarray) -> None:
    """Divide each matrix of (M, 3, 3, 2) entries by theta, in place, while
    its theta_power is positive and theta divides every entry."""
    while True:
        quotient, divides = _over_theta(entries)
        divisible = (theta_power > 0) & divides.all(axis=(1, 2))
        if not divisible.any():
            return
        entries[divisible] = quotient[divisible]
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
    frontier = IDENTITY_ENTRIES[None]
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
    target = IDENTITY_ENTRIES * (3**theta)[:, None, None, None]
    if not (ring_matmul(entries, dagger, "eisenstein") == target).all():
        raise ValueError("entries are not unitary at scale theta^k")
    for array in (entries, theta):
        array.flags.writeable = False
    return CliffordGroup(entries, theta)


def generate_clifford_qutrit() -> CliffordGroup:
    """Breadth-first closure of {H, S}: the 216 phase-quotiented
    single-qutrit Clifford elements, in deterministic BFS order."""
    generators = np.stack([H_ENTRIES, S_ENTRIES])
    return _closure(generators, np.array([1, 0], dtype=np.int64))


@dataclass(frozen=True)
class Orbit:
    representative: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


class OrbitEscapeError(RuntimeError):
    """An image of a state is none of the states; both as canonical [[a, b], ...]."""

    def __init__(self, state: list, image: list):
        self.state = state
        self.image = image
        super().__init__(f"orbit of {state} escapes the given set at {image}")


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
    and the keys of images and states too (ray_keys), and the canonical
    state of an image (canonical_coords), whose square norm is 3^k times
    the state's; HeadroomError past it.  Raises ValueError when two of
    the states lie on one ray, and OrbitEscapeError when an image is not
    one of the states."""
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
            image, _ = canonical_coords(images[np.argmin(found)][None], "eisenstein")
            raise OrbitEscapeError(coords[start].tolist(), image[0].tolist())
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
# stabiliser states


def stabiliser_generators() -> np.ndarray:
    """(12, 3, 3, 2): the generators omega^s D(a1, a2) of the 12
    scalar-free maximal abelian WH subgroups, in the fixed order D(1,0),
    D(0,1), D(1,1), D(1,2), each with s = 0, 1, 2.  D(a1, a2) = tau^(a1 a2)
    X^a1 Z^a2 with tau = omega^2 (magic.WHDisplacement), so entry
    (j, j + a1) is omega^(2 a1 a2 + a2 (j + a1) + s)."""
    a1, a2, s = np.array([(a1, a2, s) for a1, a2 in ((1, 0), (0, 1), (1, 1), (1, 2)) for s in range(3)]).T
    column = np.arange(3) + a1[:, None]  # j + a1
    return _monomial(a1, (2 * a1 * a2 + s)[:, None] + a2[:, None] * column)


def stabiliser_states(generators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unique +1 eigenstate of each of the (G, 3, 3, 2) generators g,
    as canonical_coords: the (unnormalized) projector 1 + g + g^2 applied
    to the first basis vector it does not kill.

    ValueError unless every g has order 3 and neither g nor g^2 is a
    scalar; RuntimeError when a projector kills every basis vector.  These
    are if/raise, so python -O keeps them.  (g and g^2 commute for any g,
    so the group each generates is abelian.)"""
    g2 = ring_matmul(generators, generators, "eisenstein")
    if not (ring_matmul(g2, generators, "eisenstein") == IDENTITY_ENTRIES).all():
        raise ValueError("generator does not have order 3")
    for power in (generators, g2):
        if (power == power[:, :1, :1] * _EYE).all(axis=(1, 2, 3)).any():
            raise ValueError("group contains a nontrivial scalar element")
    projectors = IDENTITY_ENTRIES + generators + g2
    kept = projectors.any(axis=(1, 3))  # (G, 3): whether column j is nonzero
    if not kept.any(axis=1).all():
        raise RuntimeError("projector annihilated every basis vector")
    return canonical_coords(projectors[np.arange(len(projectors)), :, kept.argmax(axis=1)], "eisenstein")


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
    c has integral lattice coefficients beta, beta M = c for the E6
    generator M: beta_3 = c_3 and beta_k = (c_k - c_3) / theta.  Each state
    stands for its |units| shortest vectors (states.canonical_states
    checks that count), so the matched states cover 6 vectors each."""
    if (states.lattice_name, states.norm) != ("E6", 3):
        raise ValueError(f"expected the E6 l=3 states, got {states!r}")
    shell_states = set(map(tuple, states.components.reshape(len(states), 6).tolist()))

    comps, norms = stabiliser_states(stabiliser_generators())
    times_theta = np.stack(ring_mul(comps[..., 0], comps[..., 1], *THETA.coords(), "eisenstein"), axis=-1)
    scaled = np.where((norms == 1)[:, None, None], times_theta, comps)
    quotient, divides = _over_theta(scaled[:, :2] - scaled[:, 2:])
    canonical, _ = canonical_coords(scaled, "eisenstein")

    mismatches: list[str] = []
    matched: set[tuple] = set()
    betas: list[tuple[tuple[int, int], ...]] = []
    for index, norm in enumerate(norms.tolist()):
        if norm not in (1, 3):
            mismatches.append(f"state {comps[index].tolist()} has norm {norm}, expected 1 or 3")
            continue
        if divides[index].all():
            betas.append(tuple(map(tuple, (*quotient[index].tolist(), scaled[index, 2].tolist()))))
        else:
            mismatches.append(f"no lattice coefficients for {scaled[index].tolist()}")
            betas.append(())
        key = tuple(canonical[index].ravel().tolist())
        if key in shell_states:
            matched.add(key)
        else:
            mismatches.append(f"state {scaled[index].tolist()} is not among the E6 l=3 states")
    if len(matched) != len(shell_states):
        missing = len(shell_states) - len(matched)
        mismatches.append(f"{missing} E6 l=3 states not reached by any stabiliser state")
    return CorrespondenceReport(
        ok=not mismatches,
        vectors_covered=len(EISENSTEIN_UNITS) * len(matched),
        betas=tuple(betas),
        mismatches=tuple(mismatches),
    )
