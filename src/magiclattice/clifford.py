"""Single-qutrit Clifford group, orbit partitions, stabiliser groups.

Group elements are stored as exact Eisenstein matrices E with a scale
exponent k, representing the unitary E / theta^k up to global phase
(theta = i*sqrt(3), so E.E^dagger = 3^k * I).  Equality is phase-quotient
equality: U == V iff U.V^dagger is a scalar matrix.  The canonical key
below is a pure function of that equivalence class, which makes the
breadth-first closure a plain hash-set walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exact import (
    EISENSTEIN_UNITS,
    EisensteinInt,
    OMEGA,
    THETA,
    ray_reduce,
    unit_canonicalize,
)
from .lattices import Shell, solve_eisenstein_coefficients
from .magic import WHDisplacement, wh_displacements
from .states import PureStateExact, StateSet, vector_to_state

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


class ClosureError(RuntimeError):
    """Breadth-first closure left the expected group size."""


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(3)), _ZERO) for j in range(3)
        )
        for i in range(3)
    )


def _mat_vec(m: Matrix, v: Sequence[EisensteinInt]) -> tuple[EisensteinInt, ...]:
    return tuple(sum((m[i][k] * v[k] for k in range(3)), _ZERO) for i in range(3))


def _theta_divide_all(entries: Matrix) -> Matrix | None:
    """entries / theta if every entry is divisible, else None.

    z / theta = -z * theta / 3 since theta^2 = -3.
    """
    out = []
    for row in entries:
        new_row = []
        for z in row:
            w = z * THETA
            if w.a % 3 or w.b % 3:
                return None
            new_row.append(EisensteinInt(-(w.a // 3), -(w.b // 3)))
        out.append(tuple(new_row))
    return tuple(out)


def _reduce_scale(entries: Matrix, k: int) -> tuple[Matrix, int]:
    while k > 0:
        divided = _theta_divide_all(entries)
        if divided is None:
            break
        entries = divided
        k -= 1
    return entries, k


def _canonical_key(entries: Matrix) -> tuple[tuple[int, int], ...]:
    """Hashable form invariant under global phase.

    Multiply by the conjugate of the first nonzero entry (this kills any
    unit-modulus scalar between representatives), clear theta powers and
    integer content, rotate into the canonical unit sector, read off the
    coordinates row-major.
    """
    flat = [z for row in entries for z in row]
    first = next(z for z in flat if not z.is_zero())
    conj = first.conjugate()
    flat = [z * conj for z in flat]
    # clear theta factors picked up from conj itself
    while True:
        divided = []
        for z in flat:
            w = z * THETA
            if w.a % 3 or w.b % 3:
                divided = None
                break
            divided.append(EisensteinInt(-(w.a // 3), -(w.b // 3)))
        if divided is None:
            break
        flat = divided
    content = 0
    for z in flat:
        content = _gcd2(content, _gcd2(abs(z.a), abs(z.b)))
    if content > 1:
        flat = [EisensteinInt(z.a // content, z.b // content) for z in flat]
    rotated, _ = unit_canonicalize(tuple(flat))
    return tuple(z.coords() for z in rotated)


def _gcd2(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


@dataclass(frozen=True)
class CliffordElement:
    entries: Matrix
    theta_power: int

    def __post_init__(self):
        # unitarity at the recorded scale: E.E^dagger = 3^k I
        target = 3**self.theta_power
        for i in range(3):
            for j in range(3):
                acc = _ZERO
                for k in range(3):
                    acc = acc + self.entries[i][k] * self.entries[j][k].conjugate()
                want = (target, 0) if i == j else (0, 0)
                if acc.coords() != want:
                    raise ValueError("entries are not unitary at scale theta^k")

    def key(self) -> tuple[tuple[int, int], ...]:
        return _canonical_key(self.entries)

    def __mul__(self, other: "CliffordElement") -> "CliffordElement":
        entries, k = _reduce_scale(
            _mat_mul(self.entries, other.entries),
            self.theta_power + other.theta_power,
        )
        return CliffordElement(entries, k)

    def same_element(self, other: "CliffordElement") -> bool:
        """Phase-quotient equality: self.other^dagger scalar."""
        adj = tuple(
            tuple(other.entries[j][i].conjugate() for j in range(3)) for i in range(3)
        )
        prod = _mat_mul(self.entries, adj)
        diag = prod[0][0]
        for i in range(3):
            for j in range(3):
                if i == j:
                    if prod[i][j] != diag:
                        return False
                elif not prod[i][j].is_zero():
                    return False
        return True


H = CliffordElement(H_ENTRIES, 1)
S = CliffordElement(S_ENTRIES, 0)
IDENTITY = CliffordElement(
    ((_ONE, _ZERO, _ZERO), (_ZERO, _ONE, _ZERO), (_ZERO, _ZERO, _ONE)), 0
)

_GROUP_ORDER = 216  # d^3 (d^2 - 1) at d = 3


def generate_clifford_qutrit() -> list[CliffordElement]:
    """Breadth-first closure of {H, S}: the 216 phase-quotiented
    single-qutrit Clifford elements, in deterministic BFS order."""
    seen = {IDENTITY.key(): IDENTITY}
    frontier = [IDENTITY]
    order = [IDENTITY]
    while frontier:
        next_frontier = []
        for el in frontier:
            for gen in (H, S):
                cand = el * gen
                k = cand.key()
                if k not in seen:
                    if len(seen) >= _GROUP_ORDER:
                        raise ClosureError(
                            f"closure grew past {_GROUP_ORDER} elements"
                        )
                    seen[k] = cand
                    next_frontier.append(cand)
                    order.append(cand)
        frontier = next_frontier
    if len(order) != _GROUP_ORDER:
        raise ClosureError(f"closure stopped at {len(order)} != {_GROUP_ORDER}")
    return order


def act(u: CliffordElement, state: PureStateExact) -> PureStateExact:
    """U|psi> as a canonical state (theta scale and phase dropped)."""
    if state.ring != "eisenstein" or state.dim != 3:
        raise ValueError("act expects a single-qutrit state")
    return vector_to_state(_mat_vec(u.entries, state.components))


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


def orbit_partition(
    state_set: StateSet | Sequence[PureStateExact],
    group: Sequence[CliffordElement] | None = None,
) -> list[Orbit]:
    """Partition qutrit states into Clifford orbits, largest first.

    Membership is matched on rays: the Clifford action can rescale a
    representative by theta, so components are compared after a full
    Eisenstein gcd reduction, not just rational content removal.  Raises
    ValueError when two of the states lie on one ray.
    """
    states = list(state_set.states if isinstance(state_set, StateSet) else state_set)
    if group is None:
        group = generate_clifford_qutrit()
    ray_index: dict[tuple, int] = {}
    for i, s in enumerate(states):
        j = ray_index.setdefault(ray_reduce(s.components), i)
        if j != i:
            raise ValueError(f"states {j} and {i} lie on one ray, so their orbits cannot partition the set")
    assigned = [False] * len(states)
    orbits: list[Orbit] = []
    for start, s in enumerate(states):
        if assigned[start]:
            continue
        members = set()
        for u in group:
            image = act(u, s)
            j = ray_index.get(ray_reduce(image.components))
            if j is None:
                raise OrbitEscapeError(s, image)
            members.add(j)
        for j in members:
            assigned[j] = True
        orbits.append(Orbit(representative=start, members=tuple(sorted(members))))
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
        return (IDENTITY.entries, g, _mat_mul(g, g))

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


def verify_e6_correspondence(shell: Shell) -> CorrespondenceReport:
    """Check that the 12 qutrit stabiliser states, scaled to norm 3, are
    exactly the rays of the 72 shortest E6 vectors (shell, the E6 l=3
    shell), and that each scaled state has integral lattice coefficients."""
    if (shell.lattice.name, shell.norm) != ("E6", 3):
        raise ValueError(f"expected the E6 l=3 shell, got {shell!r}")
    shell_components = {
        tuple(EisensteinInt(a, b) for a, b in zip(row[0::2], row[1::2]))
        for row in shell.rows.tolist()
    }

    mismatches: list[str] = []
    covered: set[tuple] = set()
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
        for unit in EISENSTEIN_UNITS:
            mult = tuple(z * unit for z in comps)
            if mult in shell_components:
                covered.add(mult)
            else:
                mismatches.append(f"unit multiple {mult} not in the shell")
    if len(covered) != len(shell_components):
        missing = len(shell_components) - len(covered)
        mismatches.append(f"{missing} shell vectors not reached by any state")
    return CorrespondenceReport(
        ok=not mismatches,
        vectors_covered=len(covered),
        betas=tuple(betas),
        mismatches=tuple(mismatches),
    )
