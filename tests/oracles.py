"""Slow reference implementations that the production kernels are checked
against."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

import numpy as np

from magiclattice.clifford import (
    H_ENTRIES,
    IDENTITY_ENTRIES,
    S_ENTRIES,
    ClosureError,
    Matrix,
    Orbit,
    OrbitEscapeError,
    _mat_mul,
)
from magiclattice.exact import THETA, EisensteinInt, canonical_vector, ray_reduce, unit_canonicalize
from magiclattice.lattices import EnumerationBudgetExceeded, LatticeSpec, Shell, _form_for
from magiclattice.states import PureStateExact, StateSet, real_to_complex, vector_to_state


def dfs_enumerate(lattice: LatticeSpec, norm: int, node_budget: int = 10**10) -> tuple[np.ndarray, int]:
    """The shell search as a recursive depth-first branch-and-bound in
    Python ints over the same integer form as lattices._search: every
    coefficient vector of the given norm, (N, coeff_dim) int64 in search
    order, plus the node count."""
    order, lam, mus, weights, common = _form_for(lattice)
    n = lattice.coeff_dim
    xs = [0] * n
    found = []  # rows in DFS coordinate order
    visited = 0

    lam0 = lam[0]
    mu0 = mus[0]
    w0 = weights[0]

    def descend(level: int, remaining: int, zero_prefix: bool) -> None:
        nonlocal visited
        if level == 0:
            visited += 1
            if remaining % w0:
                return
            q = remaining // w0
            r = isqrt(q)
            if r * r != q:
                return
            sigma = 0
            for i, c in lam0:
                sigma += c * xs[i]
            for t in ((r,) if r == 0 else (r, -r)):
                num = t - sigma
                if num % mu0:
                    continue
                x0 = num // mu0
                if zero_prefix and x0 <= 0:
                    continue
                xs[0] = x0
                found.append(list(xs))
            return
        w = weights[level]
        mu = mus[level]
        sigma = 0
        for i, c in lam[level]:
            sigma += c * xs[i]
        s = isqrt(remaining // w)
        lo = -((s + sigma) // mu)
        hi = (s - sigma) // mu
        if zero_prefix and lo < 0:
            lo = 0
        visited += hi - lo + 1 if hi >= lo else 0
        if visited > node_budget:
            raise EnumerationBudgetExceeded(node_budget, visited)
        for x in range(lo, hi + 1):
            t = mu * x + sigma
            xs[level] = x
            descend(level - 1, remaining - w * t * t, zero_prefix and x == 0)

    descend(n - 1, common * norm, True)
    # each vector found has its leading DFS coordinate positive; the shell
    # is symmetric under negation
    half = np.array(found, dtype=np.int64).reshape(-1, n)
    coeffs = np.empty((2 * len(half), n), dtype=np.int64)
    coeffs[: len(half), list(order)] = half
    np.negative(coeffs[: len(half)], out=coeffs[len(half) :])
    return coeffs, visited


def unit_orbits(shell: Shell) -> dict[tuple, list[int]]:
    """The shell's vectors grouped by the scalar canonical_vector: each
    canonical component tuple (ring elements) -> the ascending indices of
    the vectors that reduce to it."""
    orbits: dict[tuple, list[int]] = {}
    for index, row in enumerate(shell.rows.tolist()):
        if shell.lattice.ring == "gaussian":
            comps = real_to_complex(row)
        else:
            comps = tuple(EisensteinInt(a, b) for a, b in zip(row[0::2], row[1::2]))
        orbits.setdefault(canonical_vector(comps)[0], []).append(index)
    return orbits


def gram_matrix(lattice: LatticeSpec, generator: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """The Gram matrix of a lattice's Fraction generator rows: dot products
    for E8 and BW16, and for E6 Re(sum_k conj(u_k) v_k) of the rows read
    as Eisenstein coordinate pairs, in EisensteinInt arithmetic."""
    if lattice.ring == "gaussian":
        return [[sum(a * b for a, b in zip(x, y)) for y in generator] for x in generator]

    def ring_row(row):
        return [EisensteinInt(int(row[k]), int(row[k + 1])) for k in range(0, len(row), 2)]

    def real_part(z: EisensteinInt) -> Fraction:  # x + y*omega has real part x - y/2
        x, y = z.coords()
        return Fraction(2 * x - y, 2)

    rows = [ring_row(row) for row in generator]
    return [
        [sum((real_part(u.conjugate() * v) for u, v in zip(x, y)), Fraction(0)) for y in rows] for x in rows
    ]


def mat_inverse(m: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """The inverse of a square Fraction matrix, by Gauss-Jordan elimination."""
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


# ---------------------------------------------------------------------------
# the qutrit Clifford group and its orbits as Python objects: Eisenstein
# matrices E with a scale exponent k, the unitary E / theta^k up to phase

_ZERO = EisensteinInt(0)


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


def _gcd2(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


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


H = CliffordElement(H_ENTRIES, 1)
S = CliffordElement(S_ENTRIES, 0)
IDENTITY = CliffordElement(IDENTITY_ENTRIES, 0)

GROUP_ORDER = 216


def generate_clifford_qutrit() -> list[CliffordElement]:
    """Breadth-first closure of {H, S} over CliffordElement objects: the
    216 phase-quotiented single-qutrit Clifford elements in BFS order."""
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
                    if len(seen) >= GROUP_ORDER:
                        raise ClosureError(f"closure grew past {GROUP_ORDER} elements")
                    seen[k] = cand
                    next_frontier.append(cand)
                    order.append(cand)
        frontier = next_frontier
    if len(order) != GROUP_ORDER:
        raise ClosureError(f"closure stopped at {len(order)} != {GROUP_ORDER}")
    return order


def act(u: CliffordElement, state: PureStateExact) -> PureStateExact:
    """U|psi> as a canonical state (theta scale and phase dropped)."""
    if state.ring != "eisenstein" or state.dim != 3:
        raise ValueError("act expects a single-qutrit state")
    return vector_to_state(_mat_vec(u.entries, state.components))


def orbit_partition(
    state_set: StateSet | Sequence[PureStateExact], group: Sequence[CliffordElement]
) -> list[Orbit]:
    """clifford.orbit_partition by act and the scalar ray_reduce on every
    image: the orbits largest first, each represented by its least index;
    ValueError when two states lie on one ray, OrbitEscapeError when an
    image is not one of the states."""
    states = list(state_set.states if isinstance(state_set, StateSet) else state_set)
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
