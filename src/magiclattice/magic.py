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
from functools import lru_cache, partial
from itertools import product
from math import log2, prod
from typing import Iterable, Iterator, Mapping, Union

import numpy as np

from .exact import RINGS, EisensteinInt, GaussianInt
from .states import PureStateExact, StateSet, component_arrays

STABILISER = "Stabiliser"
MAX_MAGIC_SIC = "MaxMagicSIC"
MAX_MAGIC_MUB = "MaxMagicMUB"
INTERMEDIATE = "Intermediate"
# States per block of the batched Xi_alpha kernel (see xi_classes)
XI_BLOCK_STATES = 2**11

_OMEGA_POWERS = (EisensteinInt(1, 0), EisensteinInt(0, 1), EisensteinInt(-1, -1))


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


def xi_alpha(state: PureStateExact, alpha: int) -> Fraction:
    """Exact Xi_alpha: (1/d^n) times the sum of |<psi|O|psi>|^(2*alpha) over
    the WH set."""
    if alpha < 1:
        raise ValueError("alpha must be a positive integer")
    n4 = state.norm_sq * state.norm_sq
    total = Fraction(0)
    for op in _operator_set(state):
        total += Fraction(_bilinear_norm(op, state), n4) ** alpha
    return total / state.dim


# ---------------------------------------------------------------------------
# extremality


@dataclass(frozen=True)
class ExtremalBounds:
    delta: int
    xi_min: Fraction


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
    return ExtremalBounds(delta=delta, xi_min=xi_min)


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


def magic_label(xi2: Fraction, dim: int, ring: str) -> str:
    if xi2 == 1:
        return STABILISER
    bounds = applicable_bounds(dim, ring)
    if xi2 == bounds.xi_min:
        return MAX_MAGIC_MUB if bounds.delta == 0 else MAX_MAGIC_SIC
    return INTERMEDIATE


def stabiliser_count(n: int, d: int = 2) -> int:
    """Number of n-qudit stabiliser states, d prime: d^n * prod(d^k + 1)."""
    if n < 1:
        raise ValueError("need at least one qudit")
    out = d**n
    for k in range(1, n + 1):
        out *= d**k + 1
    return out


# ---------------------------------------------------------------------------
# batched census over a StateSet


def _walsh_signs(n: int) -> np.ndarray:
    """(2^n, 2^n) matrix of (-1)^popcount(j & z): the Z^z sign on basis
    index j."""
    idx = np.arange(1 << n)
    both = idx[:, None] & idx[None, :]
    return 1 - 2 * (sum((both >> b) & 1 for b in range(n)) & 1)


def _pauli_norms(re: np.ndarray, im: np.ndarray, n: int) -> Iterator[np.ndarray]:
    """|<c|P|c>|^2 of every state's unnormalised components, given
    component-major as (2^n, S) arrays, grouped by X-mask: for x = 0, 1,
    ..., 2^n - 1 one (2^n, S) array whose rows are the Pauli strings with
    X-mask x, one per Z-mask z (they differ from X^x Z^z by a phase only).
    Row 0 of x = 0 is the identity; the other rows follow no fixed order
    of z.

    x = 0 is one +-1 matmul of the |c_j|^2.  For x != 0 with top bit h,
    the terms T_j = conj(c_j) c_(j^x) pair up as T_(j^x) = conj(T_j), so
    over the 2^(n-1) indices j < j^x (bit h of j clear) the sum under
    Z-mask z is 2 Re(sum s_z(j) T_j) when z.x is even and
    2i Im(sum s_z(j) T_j) when it is odd.  On those j the signs s_z and
    s_(z^h) agree, and one of z, z^h is even against x, the other odd: so
    the Z-masks with bit h clear, as +-2 signs, give the even values from
    Re T and the odd ones from Im T.  That is one row copy of the partners
    and two matmuls of half the height per X-mask, each into its half of
    the mask's array.  Each value is at most norm_sq^2, and so is every
    intermediate on the way: every partial sum is at most
    sum_j |T_j| <= sum_j |c_j| |c_(j^x)| <= norm_sq.  The arrays may be
    int64, float64 below 2**53 (the matmuls then run in BLAS, and their
    sums of integers are exact in any order) or Python ints."""
    walsh, halves = _pauli_signs(n, re.dtype)
    total = walsh @ (re * re + im * im)
    total *= total
    yield total
    half = 1 << (n - 1)
    for h, (lo, signs) in enumerate(halves):
        re_lo, im_lo = re[lo], im[lo]
        for x in range(1 << h, 2 << h):
            re_hi, im_hi = re[lo ^ x], im[lo ^ x]
            values = np.empty_like(re)
            np.matmul(signs, re_lo * re_hi + im_lo * im_hi, out=values[:half])
            np.matmul(signs, re_lo * im_hi - im_lo * re_hi, out=values[half:])
            values *= values
            yield values


@lru_cache(maxsize=None)
def _pauli_signs(n: int, dtype: np.dtype) -> tuple[np.ndarray, tuple[tuple[np.ndarray, np.ndarray], ...]]:
    """The sign matrices of _pauli_norms in dtype: the (2^n, 2^n) Walsh
    signs, and for each bit h the basis indices with bit h clear and twice
    the Walsh signs among them, (2^(n-1), 2^(n-1))."""
    walsh = _walsh_signs(n)
    idx = np.arange(1 << n)
    lows = [idx[idx & (1 << h) == 0] for h in range(n)]
    return walsh.astype(dtype), tuple((lo, (2 * walsh[np.ix_(lo, lo)]).astype(dtype)) for lo in lows)


def xi_classes(
    states: StateSet, alphas: Iterable[int] = (2,)
) -> dict[int, tuple[tuple[Fraction, ...], np.ndarray]]:
    """Exact Xi_alpha of the states of a StateSet, as classes:
    for each alpha the distinct values, each once, and an int index array
    that gives each state's value among them.

    The sums over the d^2 Weyl-Heisenberg operators (4^n Pauli strings,
    or 9 qutrit displacements) of |<c|O|c>|^(2*alpha) are at most
    d^2 * norm_sq^(2*alpha), which bounds every intermediate of
    _pauli_norms, _displacement_norms and _xi_classes too.  The states go
    in blocks of XI_BLOCK_STATES, each laid out component-major for the
    kernels, and a block runs in float64 when that bound at its largest
    norm_sq is below 2**53, where every intermediate is an exact integer
    and the matmuls go through BLAS; past it the block runs in Python
    ints."""
    alphas = tuple(alphas)
    if not len(states):
        return {a: ((), np.zeros(0, np.intp)) for a in alphas}
    dim = states.components.shape[1]
    if states.ring == "gaussian":
        expectations = partial(_pauli_norms, n=dim.bit_length() - 1)
    elif dim == 3:
        expectations = _displacement_norms
    else:
        raise ValueError("eisenstein states supported at dimension 3 only")
    top = 2 * max(alphas)
    blocks = (
        component_arrays(states[i : i + XI_BLOCK_STATES], lambda nn: dim * dim * nn**top, np.float64)
        for i in range(0, len(states), XI_BLOCK_STATES)
    )
    return _xi_classes(((expectations(x.T.copy(), y.T.copy()), norms) for x, y, norms in blocks), dim, alphas)


def _xi_classes(
    blocks: Iterable[tuple[Iterable[np.ndarray], np.ndarray]], dim: int, alphas: tuple[int, ...]
) -> dict[int, tuple[tuple[Fraction, ...], np.ndarray]]:
    """Xi_alpha classes (as xi_classes) of states given in blocks: each
    block is its squared expectation values, in (k, S) groups that
    together hold each operator once, and its norm_sq.  Each group adds
    to the power sums in one column dot of its (alpha - 1)-th power
    (products, never pow) with itself, so every partial sum is part of the
    whole sum: float64 groups must keep that below 2**53, and the sums
    return to the int64 of norms.

    Xi_alpha = sum / (dim * norm_sq^(2*alpha)), so within one norm_sq the
    classes are the distinct sums; one Fraction per (sum, norm_sq) pair,
    and pairs with equal Fractions share a class."""
    sums: dict[int, list[np.ndarray]] = {a: [] for a in alphas}
    norm_blocks = []
    for groups, norms in blocks:
        block = dict.fromkeys(alphas, 0)
        for values in groups:
            for a in alphas:
                power = prod([values] * (a - 2), start=values) if a > 1 else np.ones_like(values)
                block[a] = block[a] + np.einsum("ij,ij->j", power, values)
        for a in alphas:
            sums[a].append(block[a].astype(norms.dtype))
        norm_blocks.append(norms)
    norm_values, norm_index = np.unique(np.concatenate(norm_blocks), return_inverse=True)
    members = [np.flatnonzero(norm_index == g) for g in range(len(norm_values))]
    out = {}
    for a in alphas:
        all_sums = np.concatenate(sums[a])
        index = np.empty(len(all_sums), np.intp)
        classes: dict[Fraction, int] = {}
        for norm, rows in zip(norm_values.tolist(), members):
            values, inverse = np.unique(all_sums[rows], return_inverse=True)
            denominator = dim * norm ** (2 * a)
            ids = [classes.setdefault(Fraction(v, denominator), len(classes)) for v in values.tolist()]
            index[rows] = np.array(ids, np.intp)[inverse]
        out[a] = (tuple(classes), index)
    return out


def _per_state(classes: dict[int, tuple[tuple[Fraction, ...], np.ndarray]]) -> dict[int, list[Fraction]]:
    return {a: list(map(values.__getitem__, index.tolist())) for a, (values, index) in classes.items()}


def xi_batch_gaussian(states: StateSet, alphas: Iterable[int] = (2,)) -> dict[int, list[Fraction]]:
    """Exact Xi_alpha for many qubit-register states at once, one list
    entry per state: the classes of xi_classes, spelled out.  Results are
    exact rationals identical to xi_alpha, one Fraction object per
    distinct value."""
    return _per_state(xi_classes(states, alphas))


# _OMEGA_ROTATIONS[e] maps the coordinates (x, y) of z = x + y*omega to
# those of omega^e * z
_OMEGA_ROTATIONS = np.array([[[1, 0], [0, 1]], [[0, -1], [1, -1]], [[-1, 1], [-1, 0]]])


def _displacement_norms(a: np.ndarray, b: np.ndarray) -> Iterator[np.ndarray]:
    """|<c|D|c>|^2 of every qutrit state's unnormalised components
    c_k = a_k + b_k*omega, given component-major as (3, S) arrays: for
    a1 = 0, 1, 2 one (3, S) array whose row a2 is the displacement
    D_{a1,a2} (the terms of _bilinear_norm), so the identity is row 0 of
    a1 = 0.

    Per a1 the terms conj(c_j) c_(j+a1) = x_j + y_j*omega take one row
    copy, and two +-1 matmuls per coordinate rotate term j by
    omega^(a2*(j+a1)) and sum.  With |a_k|, |b_k| <= 2|c_k|/sqrt(3) and
    sum_j |c_j| |c_(j+a1)| <= norm_sq, every coordinate and partial sum is
    at most 4 norm_sq, every partial sum of the norm re^2 - re*om + om^2
    at most 4 norm_sq^2, and the norm itself at most norm_sq^2.  As with
    _pauli_norms, the arrays may be int64, float64 below 2**53 or Python
    ints."""
    idx = np.arange(3)
    for a1 in range(3):
        k = (idx + a1) % 3
        ak, bk = a[k], b[k]
        x = a * ak - b * ak + b * bk
        y = a * bk - b * ak
        rot = _OMEGA_ROTATIONS[np.outer(idx, k) % 3].astype(a.dtype)  # (a2, j, 2, 2)
        re = rot[..., 0, 0] @ x + rot[..., 0, 1] @ y
        om = rot[..., 1, 0] @ x + rot[..., 1, 1] @ y
        yield re * re - re * om + om * om


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


def census_rows(counts: Mapping[Fraction, int], dim: int, ring: str) -> tuple[CensusRow, ...]:
    """One row per exact Xi_2 value and its state count, in descending
    Xi_2 order, with its magic class."""
    return tuple(
        CensusRow(
            xi2=xi,
            m2=-log2(xi) if xi != 1 else 0.0,
            label=magic_label(xi, dim, ring),
            state_count=count,
        )
        for xi, count in sorted(counts.items(), reverse=True)
    )


def xi2_histogram(state_set: StateSet) -> dict[Fraction, int]:
    """The number of states of a StateSet at each exact Xi_2 value,
    counted over its ``xi2_classes``."""
    values, index = state_set.xi2_classes
    return dict(zip(values, np.bincount(index, minlength=len(values)).tolist()))


def sre_census(state_set: StateSet) -> CensusReport:
    """Histogram of exact Xi_2 values (and their magic classes) over a
    StateSet, from its ``xi2_classes``.  Each state stands for its unit
    orbit, |units| vectors of a unit-closed shell."""
    units = len(RINGS[state_set.ring].UNITS)
    return CensusReport(
        lattice_name=state_set.lattice_name,
        norm=state_set.norm,
        multiplicity=units,
        rows=census_rows(xi2_histogram(state_set), state_set.components.shape[1], state_set.ring),
        state_count=state_set.count,
        vector_count=state_set.count * units,
    )
