"""Slow reference implementations that the production kernels are checked
against, and state_set, which turns PureStateExact objects into the
StateSet that every kernel takes.  Among them, the object canonicaliser
(vector_to_state), the ring-gcd ray representative (ray_reduce) and the
stabiliser states of the qutrit WH groups (stabiliser_state), which the
array kernels of states and clifford are checked against."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import product
from math import isqrt, log2
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from magiclattice import clifford
from magiclattice.clifford import ClosureError, Orbit, OrbitEscapeError
from magiclattice.entangle import (
    CLASS_A,
    CLASS_B,
    CLASS_I,
    CLASS_II,
    CLASS_III,
    CLASSES,
    UNCLASSIFIED,
    ConcurrenceArrays,
    EntanglementCensus,
    _Y_SIGN,
    _class_codes,
    _display_columns,
    _kernel_peak,
    concurrence_kernel,
    pairwise_concurrence_2qubit,
)
from magiclattice.exact import OMEGA, THETA, EisensteinInt, GaussianInt, RingElement
from magiclattice.lattices import (
    BW16_BASIS,
    E6_GENERATOR,
    E8_BASIS,
    EnumerationBudgetExceeded,
    LatticeSpec,
    Shell,
    _form_for,
    _lcm,
    coordinate_bounds,
)
from magiclattice.magic import (
    _OMEGA_POWERS,
    MAX_MAGIC_SIC,
    STABILISER,
    CensusReport,
    Operator,
    PauliString,
    WHDisplacement,
    _OMEGA_ROTATIONS,
    _bilinear_norm,
    _operator_set,
    _pauli_norms,
    _pauli_signs,
    _per_state,
    _popcount,
    magic_label,
    wh_displacements,
    xi_alpha,
    xi_classes,
)
from magiclattice.states import PureStateExact, StateSet, component_arrays


def state_set(states: Sequence[PureStateExact]) -> StateSet:
    """The StateSet of PureStateExact objects of one ring and dimension, in
    their order.  Its arrays hold Python ints (object dtype) when a norm_sq
    passes int64; every coordinate is below sqrt(2 norm_sq)."""
    norms = [s.norm_sq for s in states]
    dtype = np.int64 if max(norms) < 2**63 else object
    coords = np.array([[z.coords() for z in s.components] for s in states], dtype)
    return StateSet("oracle", 0, states[0].ring, coords, np.array(norms, dtype))


# ---------------------------------------------------------------------------
# vectors of ring elements as Python objects: the object canonicaliser


RingVector = Union[Sequence[GaussianInt], Sequence[EisensteinInt]]


def unit_canonicalize(
    components: Sequence[RingElement],
) -> tuple[tuple[RingElement, ...], RingElement]:
    """Rotate a vector by the unit that puts its first nonzero component
    into the canonical sector.

    Returns ``(rotated_components, unit)`` with ``rotated = unit * input``.
    Raises ``ValueError`` on the zero vector.
    """
    first = next((c for c in components if not c.is_zero()), None)
    if first is None:
        raise ValueError("cannot canonicalize the zero vector")
    for u in first.UNITS:
        if (u * first).in_sector():
            return tuple(u * c for c in components), u
    raise AssertionError("no unit lands in the canonical sector")  # pragma: no cover


def primitive_part(
    components: Sequence[RingElement],
) -> tuple[tuple[RingElement, ...], int]:
    """Divide out the rational integer content of a vector.

    The content is the gcd of all (re, im) respectively (a, b) integer
    coordinates.  Returns ``(primitive_components, content)``; raises
    ``ValueError`` on the zero vector.
    """
    g = 0
    for c in components:
        x, y = c.coords()
        g = math.gcd(g, math.gcd(abs(x), abs(y)))
    if g == 0:
        raise ValueError("zero vector has no primitive part")
    if g == 1:
        return tuple(components), 1
    cls = type(components[0])
    reduced = tuple(cls(c.coords()[0] // g, c.coords()[1] // g) for c in components)
    return reduced, g


def canonical_vector(
    components: Sequence[RingElement],
) -> tuple[tuple[RingElement, ...], int, RingElement]:
    """primitive_part followed by unit_canonicalize."""
    prim, content = primitive_part(components)
    rotated, unit = unit_canonicalize(prim)
    return rotated, content, unit


def vector_norm(components: Iterable[RingElement]) -> int:
    return sum(c.norm() for c in components)


def vector_to_state(v: RingVector) -> PureStateExact:
    """Map a nonzero ring vector to its canonical PureStateExact:
    primitive_part, then unit_canonicalize, with norm_sq recomputed from
    the reduced components (the oracle of states.canonical_coords)."""
    comps, _content, _unit = canonical_vector(v)
    return PureStateExact(
        ring=comps[0].RING,
        components=comps,
        norm_sq=vector_norm(comps),
    )


def _divmod_nearest(x: RingElement, y: RingElement) -> tuple[RingElement, RingElement]:
    # Nearest-integer division in basis coordinates.  Both rings are
    # norm-Euclidean under this rounding (remainder norm <= 3/4 * norm(y)
    # for Eisenstein, <= 1/2 * norm(y) for Gaussian).
    n = y.norm()
    prod = x * y.conjugate()
    p, q = prod.coords()
    cls = type(x)
    qa = (2 * p + n) // (2 * n)
    qb = (2 * q + n) // (2 * n)
    quot = cls(qa, qb)
    rem = x - quot * y
    return quot, rem


def ring_gcd(x: RingElement, y: RingElement) -> RingElement:
    """A greatest common divisor in Z[i] or Z[omega] (unique up to units)."""
    while not y.is_zero():
        _, r = _divmod_nearest(x, y)
        x, y = y, r
    return x


def exact_div(x: RingElement, y: RingElement) -> RingElement:
    """x / y when y exactly divides x; raises ``ValueError`` otherwise."""
    q, r = _divmod_nearest(x, y)
    if not r.is_zero():
        raise ValueError(f"{x} is not divisible by {y}")
    return q


def ray_reduce(components: Sequence[RingElement]) -> tuple[RingElement, ...]:
    """Canonical representative of the ray spanned by a vector, the oracle
    of the ray key states.ray_keys.

    Divides out the full ring gcd of the components (not merely the
    rational content) and canonicalizes the leading unit, so any two ring
    multiples of the same vector reduce to an identical tuple.
    """
    g: RingElement | None = None
    for c in components:
        if c.is_zero():
            continue
        g = c if g is None else ring_gcd(g, c)
    if g is None:
        raise ValueError("cannot reduce the zero vector")
    reduced = tuple(exact_div(c, g) if not c.is_zero() else c for c in components)
    rotated, _ = unit_canonicalize(reduced)
    return rotated


def solve_eisenstein_coefficients(
    components: Sequence[EisensteinInt],
) -> tuple[EisensteinInt, EisensteinInt, EisensteinInt] | None:
    """Solve beta * M = c over Z[omega] for the E6 generator M.

    Returns the coefficient triple, or None when c is not a lattice point
    (the division by theta fails).
    """
    if len(components) != 3:
        raise ValueError("expected three Eisenstein components")
    c1, c2, c3 = components
    beta3 = c3
    rem1 = c1 - beta3
    rem2 = c2 - beta3
    # division by theta: z / theta = -z * theta / 3
    out = [None, None]
    for slot, rem in enumerate((rem1, rem2)):
        prod = -(rem * THETA)
        if prod.a % 3 or prod.b % 3:
            return None
        out[slot] = EisensteinInt(prod.a // 3, prod.b // 3)
    return (out[0], out[1], beta3)


def dfs_enumerate(
    lattice: LatticeSpec, norm: int, node_budget: int = 10**10, per_orbit: bool = True
) -> tuple[np.ndarray, int]:
    """The shell search as a recursive depth-first branch-and-bound in
    Python ints over the same integer form as lattices._search: with
    per_orbit, the vectors of the given norm whose first nonzero
    coefficient pair, in search order, lies in the canonical sector (so
    one per unit orbit, as lattices._search finds them), and without
    it every vector of the shell; (N, coeff_dim) int64 in search order,
    plus the node count."""
    order, lam, mus, weights, common = _form_for(lattice)
    n = lattice.coeff_dim
    xs = [0] * n
    found = []  # rows in search coordinate order
    visited = 0

    def allowed(level: int, x: int, lead: bool) -> bool:
        # while every pair above is zero, this pair is zero or in the sector
        if not (per_orbit and lead):
            return True
        if level % 2:  # a
            return x >= 0
        a = xs[level + 1]
        if a == 0:
            return x == 0
        return x >= 0 and (lattice.ring == "gaussian" or x < a)

    def descend(level: int, remaining: int, lead: bool) -> None:
        nonlocal visited
        w, mu = weights[level], mus[level]
        sigma = sum(c * xs[i] for i, c in lam[level])
        if level == 0:
            visited += 1
            if remaining % w:
                return
            r = isqrt(remaining // w)
            if r * r != remaining // w:
                return
            for t in ((r,) if r == 0 else (r, -r)):
                if (t - sigma) % mu == 0 and allowed(0, (t - sigma) // mu, lead):
                    xs[0] = (t - sigma) // mu
                    found.append(list(xs))
            return
        s = isqrt(remaining // w)
        children = [x for x in range(-((s + sigma) // mu), (s - sigma) // mu + 1) if allowed(level, x, lead)]
        visited += len(children)
        if visited > node_budget:
            raise EnumerationBudgetExceeded(node_budget, visited)
        for x in children:
            t = mu * x + sigma
            xs[level] = x
            pair_zero = level % 2 == 1 or (xs[level + 1] == 0 and x == 0)
            descend(level - 1, remaining - w * t * t, lead and pair_zero)

    descend(n - 1, common * norm, True)
    coeffs = np.zeros((len(found), n), dtype=np.int64)
    coeffs[:, list(order)] = np.array(found, dtype=np.int64).reshape(-1, n)
    return coeffs, visited


def naive_box_enumerate(
    lattice: LatticeSpec, norm: int, block_limit: int = 1 << 21
) -> list[tuple[int, ...]]:
    """Scan the full coordinate-bound box for solutions of a G a^T = norm.

    Exhaustive by construction and independent of the branch-and-bound
    pruning; quadratic-form values are evaluated in (vectorized) integer
    arithmetic.  Intended for cross-checks on small shells.
    """
    bounds = coordinate_bounds(lattice, norm)
    n = lattice.coeff_dim
    denom = _lcm(x.denominator for row in lattice.gram for x in row)
    gi = np.array(
        [[int(x * denom) for x in row] for row in lattice.gram], dtype=np.int64
    )
    target = denom * norm

    # Split coordinates into an outer python loop and an inner numpy grid.
    widths = [2 * b + 1 for b in bounds]
    split = n
    size = 1
    while split > 0 and size * widths[split - 1] <= block_limit:
        split -= 1
        size *= widths[split]
    inner_axes = list(range(split, n))
    inner_ranges = [np.arange(-bounds[i], bounds[i] + 1, dtype=np.int64) for i in inner_axes]
    if inner_axes:
        mesh = np.meshgrid(*inner_ranges, indexing="ij")
        inner = np.stack([m.reshape(-1) for m in mesh], axis=1)
    else:
        inner = np.zeros((1, 0), dtype=np.int64)

    g_in = gi[split:, split:]
    g_cross = gi[:split, split:]
    g_out = gi[:split, :split]
    q_in = np.einsum("ij,jk,ik->i", inner, g_in, inner) if inner_axes else np.zeros(1, dtype=np.int64)
    cross = inner @ g_cross.T if split else None

    out: list[tuple[int, ...]] = []
    outer_iter = product(*[range(-bounds[i], bounds[i] + 1) for i in range(split)])
    for head in outer_iter:
        if split:
            u = np.array(head, dtype=np.int64)
            q = q_in + 2 * (cross @ u) + int(u @ g_out @ u)
        else:
            q = q_in
        hits = np.nonzero(q == target)[0]
        for idx in hits:
            out.append(tuple(head) + tuple(int(v) for v in inner[idx]))
    out.sort()
    return out


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


# The real generators of E8 and BW16 before their ring bases: E8 as simple
# roots, BW16 in doubled coordinates.  The ring bases must span the same
# lattices (tests/test_lattices.py).
def old_e8_generator() -> list[list[Fraction]]:
    rows = [[Fraction(0)] * 8 for _ in range(8)]
    for k in range(6):
        rows[k][k] = Fraction(1)
        rows[k][k + 1] = Fraction(-1)
    rows[6] = [Fraction(-1, 2)] * 6 + [Fraction(1, 2), Fraction(1, 2)]
    rows[7][5] = Fraction(1)
    rows[7][6] = Fraction(1)
    return rows


OLD_BW16_DOUBLED = (
    (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (0, 2, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 2, 0, 0),
    (0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 2, 0),
    (0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, 2),
    (0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 0, 0, 0, 2, 2, 0),
    (0, 0, 0, 0, 0, 2, 0, 2, 0, 0, 0, 0, 0, 2, 0, 2),
    (0, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 0, 2, 2),
    (0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 2, 2, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 0, 2, 0, 2),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 0, 0, 2, 2),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 2),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4, 0),
    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 4),
)


_G = GaussianInt

# BW16 over Z[i] as it was typed out before lattices.BW16_BASIS was built
# as E8's Barnes-Wall double: an echelon basis of OLD_BW16_DOUBLED
BW16_TABLE_BASIS: tuple[tuple[GaussianInt, ...], ...] = (
    (_G(1, 1),) * 8,
    (_G(0), _G(2), _G(0), _G(0, 2), _G(0), _G(0, 2), _G(0), _G(2)),
    (_G(0), _G(0), _G(2), _G(0, 2), _G(0), _G(0), _G(0, 2), _G(2)),
    (_G(0), _G(0), _G(0), _G(2, 2), _G(0), _G(0), _G(0), _G(2, 2)),
    (_G(0), _G(0), _G(0), _G(0), _G(2), _G(0, 2), _G(0, 2), _G(2)),
    (_G(0),) * 5 + (_G(2, 2), _G(0), _G(2, 2)),
    (_G(0),) * 6 + (_G(2, 2), _G(2, 2)),
    (_G(0),) * 7 + (_G(4),),
)


def old_generator(name: str) -> list[list[Fraction]]:
    """The earlier real generator of E8 or BW16, in true coordinates."""
    if name == "E8":
        return old_e8_generator()
    return [[Fraction(x, 2) for x in row] for row in OLD_BW16_DOUBLED]


def fraction_generator(lattice: LatticeSpec, basis: Sequence[Sequence[GaussianInt]] = ()) -> list[list[Fraction]]:
    """The real generator of a lattice's ring basis, or of another Gaussian
    basis of it, in true coordinates, built in Python complex numbers
    (Z[i], exact for these small integers) or EisensteinInt: rows beta_k,
    then u*beta_k, laid out as the ambient rows of lattices.Shell."""
    if lattice.ring == "gaussian":
        basis = basis or (E8_BASIS if lattice.name == "E8" else BW16_BASIS)
        basis = [[complex(z.re, z.im) for z in beta] for beta in basis]
        rows = [[u * z for z in beta] for u in (1, 1j) for beta in basis]
        ambient = [[z.real for z in row] + [z.imag for z in row] for row in rows]
    else:
        rows = [[u * z for z in beta] for u in (EisensteinInt(1), OMEGA) for beta in E6_GENERATOR]
        ambient = [[x for z in row for x in z.coords()] for row in rows]
    return [[Fraction(int(x), lattice.scale) for x in row] for row in ambient]


def solve_rational(rows: Sequence[Sequence[Fraction]], target: Sequence[Fraction]) -> list[Fraction]:
    """The x with x @ rows == target, for a square invertible Fraction
    matrix, by Gauss-Jordan elimination."""
    inverse = mat_inverse(rows)
    return [sum((t * inverse[j][i] for j, t in enumerate(target)), Fraction(0)) for i in range(len(rows))]


def determinant(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """The determinant of a square Fraction matrix, by elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n, det = len(m), Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot], det = m[pivot], m[col], -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


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


def census_histogram(report: CensusReport) -> dict[Fraction, int]:
    """The state count of a census at each exact Xi_2 value."""
    return {row.xi2: row.state_count for row in report.rows}


def entanglement_histogram(census: EntanglementCensus) -> dict[str, int]:
    """The state count of an entanglement census in each class, the
    unclassified states last when there are any."""
    out = {**census.stabiliser_classes, **census.magic_classes}
    if census.other:
        out[UNCLASSIFIED] = census.other
    return out


# ---------------------------------------------------------------------------
# states one by one


def real_to_complex(x: Sequence[int]) -> tuple[GaussianInt, ...]:
    """Pair a real vector of even length 2D into D Gaussian components,
    c_k = x_k + i*x_{D+k}.  Scale factors pass through untouched."""
    if len(x) % 2:
        raise ValueError("real vector must have even length")
    half = len(x) // 2
    return tuple(GaussianInt(x[k], x[half + k]) for k in range(half))


def overlap_sq(psi: PureStateExact, chi: PureStateExact) -> Fraction:
    """Exact |<psi|chi>|^2 for the normalized states."""
    if psi.ring != chi.ring or psi.dim != chi.dim:
        raise ValueError("states live in different spaces")
    acc = psi.components[0].conjugate() * chi.components[0]
    for a, b in zip(psi.components[1:], chi.components[1:]):
        acc = acc + a.conjugate() * b
    return Fraction(acc.norm(), psi.norm_sq * chi.norm_sq)


# ---------------------------------------------------------------------------
# Weyl-Heisenberg operators applied one state at a time


def wh_matrix(op: WHDisplacement) -> Matrix:
    """The exact matrix of a qutrit displacement over Z[omega]: entry (j, k)
    is nonzero iff k = j + a1 (mod 3), and then omega^(2 a1 a2 + a2 k)."""
    if op.d != 3:
        raise ValueError("exact matrices available for d = 3 only")
    tau_exp = (2 * op.a1 * op.a2) % 3  # tau = omega^2
    rows = []
    for j in range(3):
        row = [EisensteinInt(0)] * 3
        k = (j + op.a1) % 3
        row[k] = _OMEGA_POWERS[(tau_exp + op.a2 * k) % 3]
        rows.append(tuple(row))
    return tuple(rows)


def compose_phase_exponent(a: WHDisplacement, b: WHDisplacement) -> int:
    """tau exponent picked up in D_a * D_b = tau^e * D_{a+b}.

    Derived from Z^m X^k = omega^(-m*k) X^k Z^m (X shifts indices
    downward here) and omega = tau^2; at d = 3 it reduces to
    e = -a1*b2 mod 3.
    """
    if a.d != b.d:
        raise ValueError("dimension mismatch")
    d = a.d
    period = d if d % 2 else 2 * d
    c1 = (a.a1 + b.a1) % d
    c2 = (a.a2 + b.a2) % d
    e = a.a1 * a.a2 + b.a1 * b.a2 - 2 * a.a2 * b.a1 - c1 * c2
    return e % period


def displacement_law_violations() -> list[tuple[WHDisplacement, WHDisplacement]]:
    """The pairs (a, b), among all 81 pairs of qutrit displacements, whose
    exact matrices break D_a D_b = tau^e D_(a+b), with e =
    compose_phase_exponent(a, b) and tau = omega^2."""
    powers = (EisensteinInt(1), OMEGA, OMEGA * OMEGA)
    violations = []
    for a, b in product(wh_displacements(3), repeat=2):
        tau = powers[(2 * compose_phase_exponent(a, b)) % 3]
        c = WHDisplacement(3, (a.a1 + b.a1) % 3, (a.a2 + b.a2) % 3)
        if _mat_mul(wh_matrix(a), wh_matrix(b)) != tuple(tuple(z * tau for z in row) for row in wh_matrix(c)):
            violations.append((a, b))
    return violations


_MINUS_I_POWERS = (GaussianInt(1, 0), GaussianInt(0, -1), GaussianInt(-1, 0), GaussianInt(0, 1))


def apply_operator(op: Operator, state: PureStateExact) -> PureStateExact:
    """O|psi> as a canonical state (global phase canonicalized away)."""
    comps = _apply_components(op, state)
    return vector_to_state(comps)


def _apply_components(op: Operator, state: PureStateExact):
    c = state.components
    if isinstance(op, PauliString):
        if state.ring != "gaussian" or state.dim != 1 << op.n:
            raise ValueError("operator does not match the state's register")
        xm, zm, yc = op.masks()
        phase = _MINUS_I_POWERS[yc % 4]
        out = []
        for j in range(state.dim):
            val = c[j ^ xm] * phase
            if _popcount(j & zm) & 1:
                val = -val
            out.append(val)
        return tuple(out)
    if state.ring != "eisenstein" or state.dim != op.d or op.d != 3:
        raise ValueError("displacement application implemented for qutrit states")
    a1, a2 = op.a1, op.a2
    tau_exp = (2 * a1 * a2) % 3
    out = []
    for j in range(3):
        k = (j + a1) % 3
        out.append(c[k] * _OMEGA_POWERS[(tau_exp + a2 * k) % 3])
    return tuple(out)


def expectation_sq(state: PureStateExact, op: Operator) -> Fraction:
    """Exact |<psi|O|psi>|^2 of the normalized state."""
    return Fraction(_bilinear_norm(op, state), state.norm_sq * state.norm_sq)


def m_alpha(state: PureStateExact, alpha: int) -> float:
    """SRE of order alpha (bits)."""
    if alpha < 2:
        raise ValueError("m_alpha requires alpha >= 2")
    xi = xi_alpha(state, alpha)
    return -log2(xi) / (alpha - 1)


@dataclass(frozen=True)
class MagicReport:
    xi2: Fraction
    m2: float
    label: str


def classify(state: PureStateExact) -> MagicReport:
    xi2 = xi_alpha(state, 2)
    return MagicReport(xi2=xi2, m2=-log2(xi2) if xi2 != 1 else 0.0, label=magic_label(xi2, state.dim, state.ring))


def wh_covariance_check(state: PureStateExact) -> bool:
    """True iff every nonidentity WH expectation_sq equals 1/(D+1),
    the defining property of a WH-SIC fiducial."""
    target = Fraction(1, state.dim + 1)
    ops = _operator_set(state)
    return all(expectation_sq(state, op) == target for op in ops[1:])


def mub_orbit_check(state: PureStateExact, build_orbit: bool = False) -> bool:
    """Two-qubit MUB-fiducial check.

    Default: exact signature test, the multiset of the 16 Pauli
    expectation values must be {1} + {0}x3 + {1/4}x12.  With build_orbit
    the 16-state WH orbit is constructed instead and checked to split
    into 4 orthonormal bases with cross overlaps 1/4.
    """
    if state.ring != "gaussian" or state.dim != 4:
        raise ValueError("mub_orbit_check applies to two-qubit states")
    ops = _operator_set(state)
    if not build_orbit:
        values = sorted(expectation_sq(state, op) for op in ops)
        expected = sorted([Fraction(1)] + [Fraction(0)] * 3 + [Fraction(1, 4)] * 12)
        return values == expected

    orbit = []
    seen = set()
    for op in ops:
        st = apply_operator(op, state)
        if st.components not in seen:
            seen.add(st.components)
            orbit.append(st)
    if len(orbit) != 16:
        return False
    # Orthogonality components must form 4 bases of 4 states; overlaps
    # across bases must all be 1/4.
    unassigned = list(range(16))
    bases: list[list[int]] = []
    while unassigned:
        seed = unassigned.pop(0)
        basis = [seed]
        rest = []
        for j in unassigned:
            if overlap_sq(orbit[seed], orbit[j]) == 0:
                basis.append(j)
            else:
                rest.append(j)
        unassigned = rest
        bases.append(basis)
    if len(bases) != 4 or any(len(b) != 4 for b in bases):
        return False
    for b in bases:
        for i in range(4):
            for j in range(i + 1, 4):
                if overlap_sq(orbit[b[i]], orbit[b[j]]) != 0:
                    return False
    quarter = Fraction(1, 4)
    for bi in range(4):
        for bj in range(bi + 1, 4):
            for i in bases[bi]:
                for j in bases[bj]:
                    if overlap_sq(orbit[i], orbit[j]) != quarter:
                        return False
    return True


def sic_check(states: Union[PureStateExact, Sequence[PureStateExact]]) -> tuple[bool, list[str]]:
    """Verify WH-SIC structure: the WH orbit of each state must contain
    D^2 distinct states with pairwise overlap_sq = 1/(D+1).

    Accepts a single state (its orbit is generated) or a collection
    (partitioned into orbits; orbits must stay inside the collection).
    Returns (ok, violations).
    """
    closed = not isinstance(states, PureStateExact)
    pool = list(states) if closed else [states]

    violations: list[str] = []
    index = {s.components: i for i, s in enumerate(pool)}
    visited = [False] * len(pool)
    target = None
    for start, s in enumerate(pool):
        if visited[start]:
            continue
        ops = _operator_set(s)
        d_sq = len(ops)
        target = Fraction(1, s.dim + 1)
        orbit_states: dict[tuple, PureStateExact] = {}
        for op in ops:
            st = apply_operator(op, s)
            orbit_states[st.components] = st
            if closed:
                k = index.get(st.components)
                if k is None:
                    violations.append(
                        f"orbit of state {start} leaves the given set at {st.components}"
                    )
                else:
                    visited[k] = True
        visited[start] = True
        orbit = list(orbit_states.values())
        if len(orbit) != d_sq:
            violations.append(
                f"orbit of state {start} has {len(orbit)} distinct states, expected {d_sq}"
            )
        for i in range(len(orbit)):
            for j in range(i + 1, len(orbit)):
                ov = overlap_sq(orbit[i], orbit[j])
                if ov != target:
                    violations.append(
                        f"overlap {ov} != {target} inside orbit of state {start}"
                    )
    return (not violations, violations)


def row_major_pauli_norms(re: np.ndarray, im: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """magic._pauli_norms's algorithm on state-major (S, 2^n) arrays, the
    partners gathered along axis 1: for each X-mask an (S, 2^n) array
    whose columns are the production kernel's rows, in order."""
    walsh, halves = _pauli_signs(n, re.dtype)
    total = (re * re + im * im) @ walsh
    total *= total
    yield total
    for h, (lo, signs) in enumerate(halves):
        re_lo, im_lo = re[:, lo], im[:, lo]
        for x in range(1 << h, 2 << h):
            re_hi, im_hi = re[:, lo ^ x], im[:, lo ^ x]
            real = (re_lo * re_hi + im_lo * im_hi) @ signs
            imag = (re_lo * im_hi - im_lo * re_hi) @ signs
            real *= real
            imag *= imag
            yield np.concatenate((real, imag), axis=1)


def row_major_displacement_norms(a: np.ndarray, b: np.ndarray) -> Iterator[np.ndarray]:
    """magic._displacement_norms on state-major (S, 3) arrays: for each a1
    an (S, 3) array whose column a2 is the displacement D_{a1,a2}."""
    idx = np.arange(3)
    for a1 in range(3):
        k = (idx + a1) % 3
        ak, bk = a[:, k], b[:, k]
        x = a * ak - b * ak + b * bk
        y = a * bk - b * ak
        rot = _OMEGA_ROTATIONS[np.outer(k, idx) % 3].astype(a.dtype)  # (j, a2, 2, 2)
        re = x @ rot[..., 0, 0] + y @ rot[..., 0, 1]
        om = x @ rot[..., 1, 0] + y @ rot[..., 1, 1]
        yield re * re - re * om + om * om


def wh_covariance_check_all(states: Sequence[PureStateExact]) -> bool:
    """Batch wh_covariance_check; qutrit states take the scalar path."""
    if not states:
        return True
    if states[0].ring != "gaussian":
        return all(wh_covariance_check(s) for s in states)
    dim = states[0].dim
    # need (D+1) * |<c|P|c>|^2 == norm_sq^2 for every non-identity P
    re, im, norms = component_arrays(state_set(states), lambda nn: (dim + 1) * nn * nn)
    target = norms * norms
    for x, gn in enumerate(_pauli_norms(re.T, im.T, dim.bit_length() - 1)):
        if not ((gn[1:] if x == 0 else gn) * (dim + 1) == target).all():
            return False
    return True


def xi_batch_eisenstein(states: StateSet, alphas: Iterable[int] = (2,)) -> dict[int, list[Fraction]]:
    """Exact Xi_alpha of qutrit (Z[omega]) states, one list entry per
    state: magic.xi_classes spelled out, as magic.xi_batch_gaussian does
    for qubits."""
    return _per_state(xi_classes(states, alphas))


# ---------------------------------------------------------------------------
# three qubits through exact density matrices: reduced density matrices
# with Gaussian-integer numerators over the denominator norm_sq, the
# one-to-other concurrences and F3 from their purities, and the Wootters
# concurrence from the real roots of the exact characteristic quartic,
# found by Sturm-sequence isolation plus bisection

ROOT_TOL = 1e-12


class ConcurrenceRootError(RuntimeError):
    """Root isolation failed; carries the polynomial for post-mortem."""

    def __init__(self, message: str, coefficients: tuple[int, ...]):
        super().__init__(f"{message}; characteristic coefficients {coefficients}")
        self.coefficients = coefficients


# ---------------------------------------------------------------------------
# exact density matrices


@dataclass(frozen=True)
class DensityMatrixExact:
    """rho = num / den with Gaussian-integer num and positive integer den."""

    num: tuple[tuple[GaussianInt, ...], ...]
    den: int

    def __post_init__(self):
        d = len(self.num)
        if self.den <= 0 or any(len(row) != d for row in self.num):
            raise ValueError("malformed density matrix")
        tr = 0
        for i in range(d):
            for j in range(d):
                if self.num[i][j].conjugate() != self.num[j][i]:
                    raise ValueError("matrix is not Hermitian")
            if self.num[i][i].im:
                raise ValueError("diagonal is not real")
            tr += self.num[i][i].re
        if tr != self.den:
            raise ValueError(f"trace {tr}/{self.den} != 1")

    @property
    def dim(self) -> int:
        return len(self.num)

    def purity(self) -> Fraction:
        """Tr rho^2, exact; for Hermitian num this is sum |num_ij|^2."""
        total = 0
        for row in self.num:
            for z in row:
                total += z.norm()
        return Fraction(total, self.den * self.den)

    def validate_psd(self) -> None:
        """Leading principal minors of num must be nonnegative integers."""
        d = self.dim
        for k in range(1, d + 1):
            sub = [row[:k] for row in self.num[:k]]
            det = _gaussian_det(sub)
            if det.im:
                raise ValueError("principal minor is not real")
            if det.re < 0:
                raise ValueError(f"leading principal minor {k} is negative")


def _gaussian_det(m: Sequence[Sequence[GaussianInt]]) -> GaussianInt:
    d = len(m)
    if d == 1:
        return m[0][0]
    total = GaussianInt(0)
    for col in range(d):
        if m[0][col].is_zero():
            continue
        minor = [[row[c] for c in range(d) if c != col] for row in m[1:]]
        term = m[0][col] * _gaussian_det(minor)
        total = total - term if col % 2 else total + term
    return total


def reduced_density(state: PureStateExact, keep: Sequence[int]) -> DensityMatrixExact:
    """Exact partial trace keeping the given qubit positions (0-based,
    qubit 0 is the leftmost / most significant)."""
    if state.ring != "gaussian":
        raise ValueError("reduced_density expects a qubit-register state")
    n = state.dim.bit_length() - 1
    if 1 << n != state.dim:
        raise ValueError("state dimension is not a power of two")
    keep = sorted(set(keep))
    if not keep or len(keep) >= n or any(q < 0 or q >= n for q in keep):
        raise ValueError("keep must be a nonempty proper subset of qubits")
    traced = [q for q in range(n) if q not in keep]

    def scatter(bits: int, positions: list[int]) -> int:
        out = 0
        for pos_i, q in enumerate(positions):
            if (bits >> (len(positions) - 1 - pos_i)) & 1:
                out |= 1 << (n - 1 - q)
        return out

    dk = 1 << len(keep)
    dt = 1 << len(traced)
    kept_index = [scatter(a, keep) for a in range(dk)]
    traced_index = [scatter(r, traced) for r in range(dt)]
    c = state.components
    num = []
    for a in range(dk):
        row = []
        for b in range(dk):
            acc = GaussianInt(0)
            for r in traced_index:
                acc = acc + c[kept_index[a] | r] * c[kept_index[b] | r].conjugate()
            row.append(acc)
        num.append(tuple(row))
    return DensityMatrixExact(num=tuple(num), den=state.norm_sq)


# ---------------------------------------------------------------------------
# integer characteristic polynomials and real-root extraction


def _char_poly_descending(m: list[list[GaussianInt]]) -> tuple[int, ...]:
    """Faddeev-LeVerrier coefficients (c1..cd) of det(lambda I - M) =
    lambda^d + c1 lambda^(d-1) + ... + cd, exact integers.

    M = rho*rho_tilde has real spectrum, so every trace along the way is
    a real integer divisible by its step index; violations mean broken
    inputs and raise.
    """
    d = len(m)
    ident = [[GaussianInt(1 if i == j else 0) for j in range(d)] for i in range(d)]
    coeffs: list[int] = []
    mk = [row[:] for row in m]
    for k in range(1, d + 1):
        tr = GaussianInt(0)
        for i in range(d):
            tr = tr + mk[i][i]
        if tr.im or tr.re % k:
            raise ConcurrenceRootError(
                "characteristic trace is not a real multiple of the step",
                tuple(coeffs),
            )
        ck = -(tr.re // k)
        coeffs.append(ck)
        if k < d:
            shifted = [
                [mk[i][j] + ident[i][j] * ck for j in range(d)] for i in range(d)
            ]
            mk = [
                [
                    sum((m[i][t] * shifted[t][j] for t in range(d)), GaussianInt(0))
                    for j in range(d)
                ]
                for i in range(d)
            ]
    return tuple(coeffs)


# polynomials below are ascending Fraction tuples (a0, a1, ..., an)


def _poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for coef in reversed(p):
        acc = acc * x + coef
    return acc


def _poly_deriv(p: Sequence[Fraction]) -> list[Fraction]:
    return _poly_trim([p[i] * i for i in range(1, len(p))])


def _poly_rem(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and _poly_trim(a):
        da, la = len(a) - 1, a[-1]
        if da < db:
            break
        q = la / lb
        for i in range(db + 1):
            a[da - db + i] -= q * b[i]
        a = _poly_trim(a)
    return a


def _poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        a, b = b, _poly_rem(a, b)
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _poly_div_exact(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    a = list(a)
    out = [Fraction(0)] * (len(a) - len(b) + 1)
    db, lb = len(b) - 1, b[-1]
    while _poly_trim(a) and len(a) - 1 >= db:
        da, la = len(a) - 1, a[-1]
        q = la / lb
        out[da - db] = q
        for i in range(db + 1):
            a[da - db + i] -= q * b[i]
        a = _poly_trim(a)
    return _poly_trim(out)


def _sturm_chain(p: Sequence[Fraction]) -> list[list[Fraction]]:
    chain = [_poly_trim(list(p)), _poly_deriv(p)]
    while chain[-1]:
        rem = _poly_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return [c for c in chain if c]


def _sign_changes(chain: Sequence[Sequence[Fraction]], x: Fraction) -> int:
    signs = []
    for p in chain:
        v = _poly_eval(p, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _isolate_real_roots(p: list[Fraction]) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals (lo, hi] for every real root of the
    squarefree polynomial p."""
    chain = _sturm_chain(p)
    bound = Fraction(1) + max(abs(c) for c in p[:-1]) / abs(p[-1]) if len(p) > 1 else Fraction(1)
    lo, hi = -bound, bound

    def count(a: Fraction, b: Fraction) -> int:
        return _sign_changes(chain, a) - _sign_changes(chain, b)

    out: list[tuple[Fraction, Fraction]] = []
    stack = [(lo, hi, count(lo, hi))]
    while stack:
        a, b, k = stack.pop()
        if k == 0:
            continue
        if k == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        # nudge off an exact root so interval ends stay sign-definite
        while _poly_eval(p, mid) == 0:
            mid += (b - a) / 64
        ka = count(a, mid)
        stack.append((a, mid, ka))
        stack.append((mid, b, k - ka))
    out.sort()
    return out


def _bisect(p: Sequence[Fraction], lo: Fraction, hi: Fraction) -> float:
    flo = _poly_eval(p, lo)
    if flo == 0:
        return float(lo)
    fhi = _poly_eval(p, hi)
    if fhi == 0:
        return float(hi)
    if (flo > 0) == (fhi > 0):
        raise ConcurrenceRootError("isolating interval lost its sign change", ())
    for _ in range(200):
        if float(hi - lo) <= ROOT_TOL:
            break
        mid = (lo + hi) / 2
        fm = _poly_eval(p, mid)
        if fm == 0:
            return float(mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return float((lo + hi) / 2)


def _squarefree_part(p: list[Fraction]) -> list[Fraction]:
    g = _poly_gcd(p, _poly_deriv(p))
    return _poly_div_exact(p, g) if len(g) > 1 else list(p)


def _real_roots_with_multiplicity(coeffs_desc: tuple[int, ...]) -> list[float]:
    """All real roots (with multiplicity, descending) of the monic
    integer polynomial lambda^d + c1 lambda^(d-1) + ... + cd; raises if
    the count does not exhaust the degree (complex roots: broken input).

    Multiplicities come from the gcd chain p, gcd(p,p'), gcd of that
    with its derivative, ...: the squarefree part at level t has exactly
    the roots of multiplicity > t, and membership of a located root is
    an exact sign-change test on its isolating interval.
    """
    p = _poly_trim([Fraction(c) for c in reversed((1,) + coeffs_desc)])
    degree = len(p) - 1
    # roots at zero are exact: they are trailing zero coefficients, and
    # locating them by bisection would smear them to ~sqrt(tol) after the
    # square root taken downstream
    zero_mult = next(i for i, c in enumerate(p) if c != 0)
    found: list[float] = [0.0] * zero_mult
    p = p[zero_mult:]
    if len(p) == 1:
        return found
    sf_levels: list[list[Fraction]] = []
    cur = p
    while len(cur) > 1:
        sf_levels.append(_squarefree_part(cur))
        g = _poly_gcd(cur, _poly_deriv(cur))
        if len(g) <= 1:
            break
        cur = g
    base = sf_levels[0]
    for lo, hi in _isolate_real_roots(base):
        r = _bisect(base, lo, hi)
        # a rational root of a monic integer polynomial is an integer;
        # snap so exact roots carry no bisection error
        nearest = Fraction(round(r))
        if lo < nearest <= hi and _poly_eval(base, nearest) == 0:
            r = float(nearest)
        mult = 1
        for lvl in sf_levels[1:]:
            # lvl is squarefree and its roots are a subset of base's, so
            # "root in (lo, hi)" is equivalent to "r is a root of lvl"
            va = _poly_eval(lvl, lo)
            vb = _poly_eval(lvl, hi)
            if va == 0 or vb == 0 or (va > 0) != (vb > 0):
                mult += 1
        found.extend([r] * mult)
    if len(found) != degree:
        raise ConcurrenceRootError(
            f"found {len(found)} real roots for degree {degree}", coeffs_desc
        )
    found.sort(reverse=True)
    return found


@cache
def _cached_roots(coeffs: tuple[int, ...]) -> tuple[float, ...]:
    return tuple(_real_roots_with_multiplicity(coeffs))


# ---------------------------------------------------------------------------
# concurrence


def _rho_tilde_num(num: Sequence[Sequence[GaussianInt]]):
    return [
        [
            num[a ^ 3][b ^ 3].conjugate() * (_Y_SIGN[a ^ 3] * _Y_SIGN[b])
            for b in range(4)
        ]
        for a in range(4)
    ]


def characteristic_coefficients(num: Sequence[Sequence[GaussianInt]]) -> tuple[int, ...]:
    """_char_poly_descending of num * num_tilde, for the 4x4 numerator num
    of a 2-qubit density matrix and its spin flip num_tilde."""
    tilde = _rho_tilde_num(num)
    return _char_poly_descending(
        [[sum((num[i][k] * tilde[k][j] for k in range(4)), GaussianInt(0)) for j in range(4)] for i in range(4)]
    )


def wootters_concurrence(rho: DensityMatrixExact) -> float:
    """max(0, eta1 - eta2 - eta3 - eta4) with eta the decreasing square
    roots of the eigenvalues of rho * rho_tilde."""
    if rho.dim != 4:
        raise ValueError("wootters_concurrence expects a 2-qubit density matrix")
    mus = _cached_roots(characteristic_coefficients(rho.num))
    etas = [math.sqrt(max(0.0, mu)) / rho.den for mu in mus]
    return max(0.0, etas[0] - etas[1] - etas[2] - etas[3])


def pairwise_concurrence(state: PureStateExact, i: int, j: int) -> float:
    """Wootters concurrence between qubits i and j of a 3-qubit state."""
    if state.dim != 8:
        raise ValueError("pairwise_concurrence expects a 3-qubit state")
    if i == j:
        raise ValueError("need two distinct qubits")
    return wootters_concurrence(reduced_density(state, [i, j]))


def one_to_other_concurrence(state: PureStateExact, i: int) -> tuple[float, Fraction]:
    """C_{i(rest)} = sqrt(2 (1 - Tr rho_i^2)); the square is exact."""
    if state.dim != 8:
        raise ValueError("one_to_other_concurrence expects a 3-qubit state")
    rho = reduced_density(state, [i])
    c_sq = 2 * (1 - rho.purity())
    return math.sqrt(float(c_sq)), c_sq


def pure_concurrence_2qubit(state: PureStateExact) -> tuple[float, Fraction]:
    """Pure-state concurrence of one 2-qubit state, C = 2|c1 c4 - c2 c3| / N,
    exact square returned alongside (the oracle of
    entangle.pairwise_concurrence_2qubit)."""
    if state.dim != 4 or state.ring != "gaussian":
        raise ValueError("expects a 2-qubit state")
    c = state.components
    det = c[0] * c[3] - c[1] * c[2]
    c_sq = Fraction(4 * det.norm(), state.norm_sq**2)
    return math.sqrt(float(c_sq)), c_sq


def wootters_gap(rng: random.Random, bound: int, count: int = 1000) -> float:
    """The largest difference between wootters_concurrence, on the density
    matrix of a pure 2-qubit state, and the pure-state formula
    entangle.pairwise_concurrence_2qubit, over count random states with
    coordinates in [-bound, bound]."""
    states = []
    for _ in range(count):
        comps = tuple(GaussianInt(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(4))
        if all(z.is_zero() for z in comps):
            comps = (GaussianInt(1), GaussianInt(0), GaussianInt(0), GaussianInt(0))
        states.append(vector_to_state(comps))
    c_num, c_den = pairwise_concurrence_2qubit(state_set(states))
    worst = 0.0
    for st, value in zip(states, np.sqrt(c_num / c_den).tolist()):
        num = tuple(tuple(a * b.conjugate() for b in st.components) for a in st.components)
        rho = DensityMatrixExact(num=num, den=st.norm_sq)
        worst = max(worst, abs(wootters_concurrence(rho) - value))
    return worst


def _reduced_numerators(re: np.ndarray, im: np.ndarray, keep: tuple[int, ...]):
    """Real and imaginary parts, each (S, k, k), of the numerators of the
    reduced density matrices of 3-qubit states on the qubits in keep
    (big-endian order)."""
    traced = tuple(q for q in range(3) if q not in keep)
    axes = (0,) + tuple(1 + q for q in keep + traced)
    shape = (len(re), 1 << len(keep), -1)
    ar = re.reshape(-1, 2, 2, 2).transpose(axes).reshape(shape)
    ai = im.reshape(-1, 2, 2, 2).transpose(axes).reshape(shape)
    art, ait = ar.swapaxes(1, 2), ai.swapaxes(1, 2)
    return ar @ art + ai @ ait, ai @ art - ar @ ait


_PAIRS = ((0, 1), (0, 2), (1, 2))  # column order of pairwise arrays: AB, AC, BC


def _matmul_peak(norm_sq: int) -> int:
    """Bound on every intermediate of matmul_concurrence_arrays over states
    with norm_sq <= N: a reduced numerator has |num_ab| <= N, so
    |M_ab| <= 4N^2, |tr M| <= 16N^2, |tr M^2| <= 256N^4 and
    |c2| <= 384N^4, and its classes test 324*c2."""
    return 324 * 384 * norm_sq**4


def matmul_concurrence_arrays(states: StateSet) -> ConcurrenceArrays:
    """The ConcurrenceArrays of 3-qubit states from the reduced numerators
    of the three pairs and their batched products M = num*num_tilde (the
    oracle of entangle.concurrence_kernel's closed forms): P_i is the
    purity of the pair that leaves qubit i out, c1 = -tr M and
    c2 = (tr^2 M - tr M^2)/2; in one block, in Python ints past int64."""
    re, im, norm_sq = component_arrays(states, _matmul_peak)
    spin_flip = np.outer(_Y_SIGN, _Y_SIGN)
    purity, c1, c2 = [], [], []
    for pair in _PAIRS:
        nr, ni = _reduced_numerators(re, im, pair)
        purity.append((nr * nr + ni * ni).sum(axis=(1, 2)))
        tr = spin_flip * nr[:, ::-1, ::-1]
        ti = -spin_flip * ni[:, ::-1, ::-1]
        mr = nr @ tr - ni @ ti
        mi = nr @ ti + ni @ tr
        trace = np.trace(mr, axis1=1, axis2=2)
        trace_sq = (mr * mr.swapaxes(1, 2) - mi * mi.swapaxes(1, 2)).sum(axis=(1, 2))
        c1.append(-trace)
        c2.append((trace * trace - trace_sq) // 2)
    purity = np.stack(purity[::-1], axis=1)  # BC, AC, AB leave out A, B, C
    gap = (norm_sq * norm_sq)[:, None] - purity
    heron = gap.sum(axis=1) ** 2 - 2 * (gap * gap).sum(axis=1)
    return ConcurrenceArrays(norm_sq, purity, np.stack(c1, axis=1), np.stack(c2, axis=1), heron)


def single_qubit_purities(states: StateSet) -> np.ndarray:
    """(S, 3) purity numerators P_i = N^2 Tr rho_i^2 of 3-qubit states, each
    from its own single-qubit reduction (the oracle of the purities of
    entangle.concurrence_kernel); Python ints past the kernel's int64
    bound."""
    re, im, _ = component_arrays(states, _kernel_peak)
    purity = []
    for q in range(3):
        nr, ni = _reduced_numerators(re, im, (q,))
        purity.append((nr * nr + ni * ni).sum(axis=(1, 2)))
    return np.stack(purity, axis=1)


# Cayley's 2x2x2 hyperdeterminant: weight, then the component indices
# (a_ijk at 4i + 2j + k) of each product in its sum
_HYPERDETERMINANT_TERMS = (
    (1, ((0, 0, 7, 7), (1, 1, 6, 6), (2, 2, 5, 5), (4, 4, 3, 3))),
    (-2, ((0, 1, 6, 7), (0, 2, 5, 7), (0, 4, 3, 7), (1, 2, 5, 6), (1, 4, 3, 6), (2, 4, 3, 5))),
    (4, ((0, 3, 5, 6), (1, 2, 4, 7))),
)


def cayley_hyperdeterminant(state: PureStateExact) -> GaussianInt:
    """Det of a 3-qubit state's components, in exact Gaussian integers; the
    three-tangle is tau_3 = 4|Det|/N^2 (Coffman, Kundu and Wootters,
    2000)."""
    det = GaussianInt(0)
    for weight, products in _HYPERDETERMINANT_TERMS:
        for indices in products:
            value = GaussianInt(weight)
            for i in indices:
                value = value * state.components[i]
            det = det + value
    return det


def f3(state: PureStateExact) -> tuple[float, Fraction]:
    """Triangle measure over the three one-to-other concurrences:
    F3 = (4/sqrt(3)) * sqrt(Q(Q-C1)(Q-C2)(Q-C3)).  Computed from the
    exact squares via Heron's identity, so the squared value is an
    exact rational."""
    a2, b2, c2 = (one_to_other_concurrence(state, i)[1] for i in range(3))
    # 16 * heron = 2(a2 b2 + b2 c2 + c2 a2) - a2^2 - b2^2 - c2^2
    heron16 = 2 * (a2 * b2 + b2 * c2 + c2 * a2) - a2 * a2 - b2 * b2 - c2 * c2
    if heron16 < 0:
        raise ValueError("one-to-other concurrences violate the triangle inequality")
    f3_sq = heron16 / 3
    return math.sqrt(float(f3_sq)), f3_sq


def class_labels(k: ConcurrenceArrays, magic_classes: Sequence[str]) -> list[str]:
    """Class label of every state from the same integer identities as
    entangle._class_codes, over all states at once, with the magic classes
    and the labels as numpy string arrays."""
    n2 = (k.norm_sq * k.norm_sq)[:, None]
    c1, c2 = k.c1, k.c2
    separable = k.purity == n2  # C_i(rest) = 0
    maximal = 2 * k.purity == n2  # C_i(rest)^2 = 1
    sic_sides = 3 * k.purity == 2 * n2  # C_i(rest)^2 = 2/3
    pair_zero = c1 * c1 == 4 * c2  # C = 0
    d = -c1 - n2
    pair_one = (d >= 0) & (d * d == 4 * c2)  # C = 1
    d = -9 * c1 - 2 * n2
    pair_b = (d >= 0) & (d * d == 324 * c2)  # C^2 = 2/9
    magic = np.asarray(magic_classes)
    stab = magic == STABILISER
    sic = (magic == MAX_MAGIC_SIC) & sic_sides.all(axis=1)
    class_ii = (
        (separable.sum(axis=1) == 1)
        & (maximal.sum(axis=1) == 2)
        & (separable & pair_one[:, ::-1]).any(axis=1)
    )
    conditions = [
        stab & separable.all(axis=1),
        stab & class_ii,
        stab & maximal.all(axis=1) & pair_zero.all(axis=1),
        sic & pair_zero.all(axis=1),
        sic & pair_b.all(axis=1),
    ]
    choices = [CLASS_I, CLASS_II, CLASS_III, CLASS_A, CLASS_B]
    return np.select(conditions, choices, UNCLASSIFIED).tolist()


@dataclass(frozen=True)
class ConcurrenceProfile:
    pairwise: tuple[float, float, float]  # C_AB, C_AC, C_BC
    one_to_other: tuple[float, float, float]  # C_A(BC), C_B(AC), C_C(AB)
    one_to_other_sq: tuple[Fraction, Fraction, Fraction]
    f3: float
    f3_sq: Fraction
    label: str


def classify_entanglement(state: PureStateExact, magic_class: str) -> ConcurrenceProfile:
    """Profile + class label of one 3-qubit state: concurrence_kernel and
    _class_codes applied to it, with the exact squares as Fractions."""
    k = concurrence_kernel(state_set([state]))
    code = _class_codes(k, np.array([magic_class == STABILISER]), np.array([magic_class == MAX_MAGIC_SIC]))[0]
    values = _display_columns(k)[0].tolist()
    n2 = state.norm_sq * state.norm_sq
    return ConcurrenceProfile(
        pairwise=tuple(values[:3]),
        one_to_other=tuple(values[3:6]),
        one_to_other_sq=tuple(Fraction(2 * (n2 - int(p)), n2) for p in k.purity[0]),
        f3=values[6],
        f3_sq=Fraction(4 * int(k.heron[0]), 3 * n2 * n2),
        label=CLASSES[code],
    )


# ---------------------------------------------------------------------------
# the qutrit Clifford group and its orbits as Python objects: Eisenstein
# matrices E with a scale exponent k, the unitary E / theta^k up to phase

Matrix = tuple[tuple[EisensteinInt, ...], ...]

_ZERO = EisensteinInt(0)


def object_matrix(entries: np.ndarray) -> Matrix:
    """The EisensteinInt matrix of (3, 3, 2) int64 coordinates."""
    return tuple(tuple(EisensteinInt(*z) for z in row) for row in entries.tolist())


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
    conj = next(z for z in flat if not z.is_zero()).conjugate()
    scaled = (tuple(z * conj for z in flat),)
    # clear theta factors picked up from conj itself
    while (divided := _theta_divide_all(scaled)) is not None:
        scaled = divided
    return tuple(z.coords() for z in canonical_vector(scaled[0])[0])


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


IDENTITY_ENTRIES = object_matrix(clifford.IDENTITY_ENTRIES)
H = CliffordElement(object_matrix(clifford.H_ENTRIES), 1)
S = CliffordElement(object_matrix(clifford.S_ENTRIES), 0)
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


def orbit_partition(states: Iterable[PureStateExact], group: Sequence[CliffordElement]) -> list[Orbit]:
    """clifford.orbit_partition by act and the scalar ray_reduce on every
    image: the orbits largest first, each represented by its least index;
    ValueError when two states lie on one ray, OrbitEscapeError when an
    image is not one of the states."""
    states = list(states)
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
                raise OrbitEscapeError(*([list(z.coords()) for z in t.components] for t in (s, image)))
            members.add(j)
        for j in members:
            assigned[j] = True
        orbits.append(Orbit(representative=start, members=tuple(sorted(members))))
    orbits.sort(key=lambda o: (-o.size, o.representative))
    return orbits


# ---------------------------------------------------------------------------
# the qutrit stabiliser groups and states as Python objects


@dataclass(frozen=True)
class StabiliserGroupQutrit:
    phase_power: int  # s in omega^s * D
    displacement: WHDisplacement

    def generator_matrix(self) -> Matrix:
        m = wh_matrix(self.displacement)
        phase = (EisensteinInt(1), OMEGA, OMEGA * OMEGA)[self.phase_power % 3]
        return tuple(tuple(z * phase for z in row) for row in m)

    def element_matrices(self) -> tuple[Matrix, Matrix, Matrix]:
        g = self.generator_matrix()
        return (IDENTITY_ENTRIES, g, _mat_mul(g, g))

    def validate(self) -> None:
        """Order 3 and no nontrivial scalar element."""
        ident, g, g2 = self.element_matrices()
        if _mat_mul(g, g2) != ident:
            raise ValueError("generator does not have order 3")
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
    1 + s + s^2 applied to the first basis vector it does not kill: the
    oracle of clifford.stabiliser_states."""
    ident, g, g2 = group.element_matrices()
    proj = tuple(
        tuple(ident[i][j] + g[i][j] + g2[i][j] for j in range(3)) for i in range(3)
    )
    for col in range(3):
        image = tuple(proj[i][col] for i in range(3))
        if any(not z.is_zero() for z in image):
            return vector_to_state(image)
    raise RuntimeError("projector annihilated every basis vector")
