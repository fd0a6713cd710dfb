"""Weyl-Heisenberg operators and exact stabiliser Renyi entropy.

The SRE of order alpha of a normalized pure state is

    M_alpha = -log2(Xi_alpha) / (alpha - 1),
    Xi_alpha = (1/d^n) * sum_O |<psi|O|psi>|^(2*alpha)

with O running over the phase-quotiented Weyl-Heisenberg group (Pauli
strings for qubits, displacements D_{a1,a2} for one qutrit).  Because
states are stored unnormalized with an integer norm_sq, every squared
expectation value is an exact rational and so is Xi_alpha.

Operators never materialize as dense matrices in expectation values: X
components act as index shifts, Z components as unit-phase factors.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import log2
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .exact import EisensteinInt, GaussianInt
from .states import PureStateExact, StateSet, component_arrays, overlap_sq, vector_to_state

STABILISER = "Stabiliser"
MAX_MAGIC_SIC = "MaxMagicSIC"
MAX_MAGIC_MUB = "MaxMagicMUB"
INTERMEDIATE = "Intermediate"

_OMEGA_POWERS = (EisensteinInt(1, 0), EisensteinInt(0, 1), EisensteinInt(-1, -1))
_MINUS_I_POWERS = (
    GaussianInt(1, 0),
    GaussianInt(0, -1),
    GaussianInt(-1, 0),
    GaussianInt(0, 1),
)


# ---------------------------------------------------------------------------
# operator sets


@dataclass(frozen=True)
class PauliString:
    labels: str  # characters from "IXYZ", qubit 1 first

    @property
    def n(self) -> int:
        return len(self.labels)

    def masks(self) -> tuple[int, int, int]:
        """(xmask, zmask, y_count) against big-endian basis indexing."""
        n = len(self.labels)
        xm = zm = yc = 0
        for pos, ch in enumerate(self.labels):
            bit = 1 << (n - 1 - pos)
            if ch in "XY":
                xm |= bit
            if ch in "ZY":
                zm |= bit
            if ch == "Y":
                yc += 1
        return xm, zm, yc

    def __str__(self) -> str:  # pragma: no cover
        return self.labels


def pauli_strings(n: int) -> tuple[PauliString, ...]:
    """All 4^n Pauli strings in lexicographic order, identity first."""
    if n < 1:
        raise ValueError("need at least one qubit")
    return tuple(PauliString("".join(p)) for p in product("IXYZ", repeat=n))


@dataclass(frozen=True)
class WHDisplacement:
    """D_{a1,a2} = tau^(a1*a2) X^a1 Z^a2 with tau = -exp(i*pi/d)."""

    d: int
    a1: int
    a2: int

    def matrix(self):
        """Exact matrix realization (d = 2 over Z[i], d = 3 over Z[omega])."""
        if self.d == 3:
            # tau = omega^2; entry (j, k): nonzero iff k = j + a1 (mod 3)
            tau_exp = (2 * self.a1 * self.a2) % 3
            rows = []
            for j in range(3):
                row = [EisensteinInt(0)] * 3
                k = (j + self.a1) % 3
                row[k] = _OMEGA_POWERS[(tau_exp + self.a2 * k) % 3]
                rows.append(tuple(row))
            return tuple(rows)
        if self.d == 2:
            # tau = -i; entry (j, k): nonzero iff k = j xor a1
            rows = []
            for j in range(2):
                row = [GaussianInt(0)] * 2
                k = j ^ self.a1
                sign = -1 if (self.a2 and k) else 1
                row[k] = _MINUS_I_POWERS[(self.a1 * self.a2) % 4] * sign
                rows.append(tuple(row))
            return tuple(rows)
        raise ValueError("exact matrices available for d in {2, 3} only")

    def compose_phase_exponent(self, other: "WHDisplacement") -> int:
        """tau exponent picked up in D_a * D_b = tau^e * D_{a+b}.

        Derived from Z^m X^k = omega^(-m*k) X^k Z^m (X shifts indices
        downward here) and omega = tau^2; at d = 3 it reduces to
        e = -a1*b2 mod 3.
        """
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        d = self.d
        period = d if d % 2 else 2 * d
        c1 = (self.a1 + other.a1) % d
        c2 = (self.a2 + other.a2) % d
        e = (
            self.a1 * self.a2
            + other.a1 * other.a2
            - 2 * self.a2 * other.a1
            - c1 * c2
        )
        return e % period


def wh_displacements(d: int) -> tuple[WHDisplacement, ...]:
    """All d^2 phase-quotiented displacements, identity first."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    return tuple(WHDisplacement(d, a1, a2) for a1 in range(d) for a2 in range(d))


Operator = Union[PauliString, WHDisplacement]


# ---------------------------------------------------------------------------
# applying operators exactly


def _popcount(x: int) -> int:
    return bin(x).count("1")


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


def _bilinear_norm(op: Operator, state: PureStateExact) -> int:
    """|<c|O|c>|^2 for the unnormalized component vector c (exact integer)."""
    c = state.components
    if isinstance(op, PauliString):
        xm, zm, _ = op.masks()
        acc = GaussianInt(0)
        for j in range(state.dim):
            term = c[j].conjugate() * c[j ^ xm]
            acc = acc - term if _popcount(j & zm) & 1 else acc + term
        return acc.norm()
    a1, a2 = op.a1, op.a2
    acc = EisensteinInt(0)
    for j in range(3):
        k = (j + a1) % 3
        acc = acc + c[j].conjugate() * (c[k] * _OMEGA_POWERS[(a2 * k) % 3])
    return acc.norm()


def _operator_set(state: PureStateExact) -> tuple[Operator, ...]:
    if state.ring == "gaussian":
        n = state.dim.bit_length() - 1
        if 1 << n != state.dim:
            raise ValueError("gaussian states must live on a qubit register")
        return pauli_strings(n)
    if state.dim != 3:
        raise ValueError("eisenstein states supported at dimension 3 only")
    return wh_displacements(3)


def expectation_sq(state: PureStateExact, op: Operator) -> Fraction:
    """Exact |<psi|O|psi>|^2 of the normalized state."""
    return Fraction(_bilinear_norm(op, state), state.norm_sq * state.norm_sq)


def xi_alpha(state: PureStateExact, alpha: int) -> Fraction:
    """Exact Xi_alpha: (1/d^n) sum of expectation_sq^alpha over the WH set."""
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    n4 = state.norm_sq * state.norm_sq
    total = Fraction(0)
    for op in _operator_set(state):
        total += Fraction(_bilinear_norm(op, state), n4) ** alpha
    return total / state.dim


def m_alpha(state: PureStateExact, alpha: int) -> float:
    """SRE of order alpha (bits)."""
    if alpha < 2:
        raise ValueError("m_alpha requires alpha >= 2")
    xi = xi_alpha(state, alpha)
    return -log2(xi) / (alpha - 1)


# ---------------------------------------------------------------------------
# extremality


@dataclass(frozen=True)
class ExtremalBounds:
    D: int
    delta: int
    xi_min: Fraction
    m_max: float


def extremal_bounds(D: int, delta: int) -> ExtremalBounds:
    """Minimal Xi_2 (hence maximal M_2) at Hilbert dimension D.

    delta = 1 is the WH-SIC bound 2/(D+1); delta = 0 is the WH-MUB bound
    (2D-1)/D^2.
    """
    if D < 2:
        raise ValueError("dimension must be at least 2")
    if delta == 1:
        xi_min = Fraction(2, D + 1)
    elif delta == 0:
        xi_min = Fraction(2 * D - 1, D * D)
    else:
        raise ValueError("delta must be 0 or 1")
    return ExtremalBounds(D=D, delta=delta, xi_min=xi_min, m_max=log2(1 / xi_min))


def applicable_bounds(dim: int, ring: str) -> ExtremalBounds:
    """The saturated bound for each system treated here: the two-qubit
    maximum is of MUB type (delta 0), every other system is SIC type."""
    if ring == "gaussian" and dim == 4:
        return extremal_bounds(4, 0)
    if ring == "gaussian" and dim in (2, 8):
        return extremal_bounds(dim, 1)
    if ring == "eisenstein" and dim == 3:
        return extremal_bounds(3, 1)
    raise ValueError(f"no bound on record for dim {dim} over {ring}")


@dataclass(frozen=True)
class MagicReport:
    xi2: Fraction
    m2: float
    label: str


def magic_label(xi2: Fraction, dim: int, ring: str) -> str:
    if xi2 == 1:
        return STABILISER
    bounds = applicable_bounds(dim, ring)
    if xi2 == bounds.xi_min:
        return MAX_MAGIC_MUB if bounds.delta == 0 else MAX_MAGIC_SIC
    return INTERMEDIATE


def classify(state: PureStateExact) -> MagicReport:
    xi2 = xi_alpha(state, 2)
    return MagicReport(xi2=xi2, m2=-log2(xi2) if xi2 != 1 else 0.0, label=magic_label(xi2, state.dim, state.ring))


def stabiliser_count(n: int, d: int = 2) -> int:
    """Number of n-qudit stabiliser states, d prime: d^n * prod(d^k + 1)."""
    if n < 1:
        raise ValueError("need at least one qudit")
    out = d**n
    for k in range(1, n + 1):
        out *= d**k + 1
    return out


# ---------------------------------------------------------------------------
# saturation checks


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


def sic_check(
    states: Union[PureStateExact, StateSet, Sequence[PureStateExact]],
) -> tuple[bool, list[str]]:
    """Verify WH-SIC structure: the WH orbit of each state must contain
    D^2 distinct states with pairwise overlap_sq = 1/(D+1).

    Accepts a single state (its orbit is generated) or a collection
    (partitioned into orbits; orbits must stay inside the collection).
    Returns (ok, violations).
    """
    if isinstance(states, PureStateExact):
        pool = [states]
        closed = False
    elif isinstance(states, StateSet):
        pool = list(states.states)
        closed = True
    else:
        pool = list(states)
        closed = True

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


# ---------------------------------------------------------------------------
# batched census over a StateSet


def _pauli_tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index permutations and sign patterns of all 4^n strings.

    Returns (perms, signs) of shapes (4^n, 2^n): row o maps component j
    to sign[o, j] * c[perm[o, j]] inside the bilinear form.
    """
    dim = 1 << n
    ops = pauli_strings(n)
    perms = np.empty((len(ops), dim), dtype=np.int64)
    signs = np.empty((len(ops), dim), dtype=np.int64)
    idx = np.arange(dim)
    for o, op in enumerate(ops):
        xm, zm, _ = op.masks()
        perms[o] = idx ^ xm
        bits = idx & zm
        pop = np.zeros(dim, dtype=np.int64)
        for b in range(n):
            pop += (bits >> b) & 1
        signs[o] = 1 - 2 * (pop & 1)
    return perms, signs


def _pauli_norms(re: np.ndarray, im: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """|<c|P|c>|^2 of every state's unnormalised components, one array
    per Pauli string P in pauli_strings order.  Each value is at most
    norm_sq^2, and so is every partial sum on the way."""
    perms, signs = _pauli_tables(n)
    for o in range(perms.shape[0]):
        rp = re[:, perms[o]]
        ip = im[:, perms[o]]
        sg = signs[o]
        re_s = ((re * rp + im * ip) * sg).sum(axis=1)
        im_s = ((re * ip - im * rp) * sg).sum(axis=1)
        yield re_s * re_s + im_s * im_s


def xi_batch_gaussian(
    states: Sequence[PureStateExact], alphas: Iterable[int] = (2,)
) -> dict[int, list[Fraction]]:
    """Exact Xi_alpha for many qubit-register states at once.

    The sums over the 4^n Pauli strings of |<c|P|c>|^(2*alpha) are at
    most 4^n * norm_sq^(2*alpha); they run in int64 when that fits and
    in Python ints otherwise.  Results are exact rationals identical to
    xi_alpha.
    """
    alphas = tuple(alphas)
    if not states:
        return {a: [] for a in alphas}
    dim = states[0].dim
    n = dim.bit_length() - 1
    top = max(alphas)
    re, im, norms = component_arrays(states, lambda nn: 4**n * nn ** (2 * top))
    sums = {a: np.zeros(len(states), dtype=re.dtype) for a in alphas}
    for gn in _pauli_norms(re, im, n):
        for a in alphas:
            sums[a] += gn**a
    out: dict[int, list[Fraction]] = {}
    for a in alphas:
        denom = [dim * int(nn) ** (2 * a) for nn in norms]
        out[a] = [Fraction(int(s), d) for s, d in zip(sums[a], denom)]
    return out


def wh_covariance_check_all(states: Sequence[PureStateExact]) -> bool:
    """Batch wh_covariance_check; qutrit states take the scalar path."""
    if not states:
        return True
    if states[0].ring != "gaussian":
        return all(wh_covariance_check(s) for s in states)
    dim = states[0].dim
    # need (D+1) * |<c|P|c>|^2 == norm_sq^2 for every non-identity P
    re, im, norms = component_arrays(states, lambda nn: (dim + 1) * nn * nn)
    target = norms * norms
    gns = _pauli_norms(re, im, dim.bit_length() - 1)
    next(gns)  # the identity
    return all(np.array_equal(gn * (dim + 1), target) for gn in gns)


@dataclass(frozen=True)
class CensusRow:
    xi2: Fraction
    m2: float
    label: str
    state_count: int


@dataclass(frozen=True)
class CensusReport:
    lattice_name: str
    norm: int
    multiplicity: int
    rows: tuple[CensusRow, ...]
    state_count: int
    vector_count: int

    def histogram(self) -> dict[Fraction, int]:
        return {row.xi2: row.state_count for row in self.rows}

    def class_histogram(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for row in self.rows:
            out[row.label] = out.get(row.label, 0) + row.state_count
        return out


def sre_census(state_set: StateSet, use_batch: bool = True) -> CensusReport:
    """Histogram of exact Xi_2 values (and their magic classes) over a
    StateSet.  The batched integer path and the scalar exact path give
    identical rationals; the scalar path is kept as the reference."""
    states = state_set.states
    if use_batch and state_set.ring == "gaussian":
        xi_values = xi_batch_gaussian(states, alphas=(2,))[2]
    else:
        xi_values = [xi_alpha(s, 2) for s in states]
    counts: dict[Fraction, int] = {}
    for xi in xi_values:
        counts[xi] = counts.get(xi, 0) + 1
    dim = states[0].dim
    rows = tuple(
        CensusRow(
            xi2=xi,
            m2=-log2(xi) if xi != 1 else 0.0,
            label=magic_label(xi, dim, state_set.ring),
            state_count=count,
        )
        for xi, count in sorted(counts.items(), reverse=True)
    )
    return CensusReport(
        lattice_name=state_set.lattice_name,
        norm=state_set.norm,
        multiplicity=state_set.uniform_multiplicity,
        rows=rows,
        state_count=state_set.count,
        vector_count=state_set.vector_count,
    )
