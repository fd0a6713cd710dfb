"""Concurrence-based entanglement measures on 2- and 3-qubit states.

The 3-qubit census runs on one batched kernel, concurrence_kernel.  For
every state it computes exact integers: the one-to-other purities and,
for each qubit pair, the first two characteristic coefficients of
rho*rho_tilde.  Class labels follow from integer identities on them, so
no label depends on a float; the float columns (concurrences and F3)
are derived from the same integers for display only, when first read.
pairwise_concurrence_2qubit is the pure-state formula for 2-qubit
states.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .magic import MAX_MAGIC_SIC, STABILISER, magic_label
from .states import PureStateExact, StateSet, component_arrays

_Y_SIGN = (-1, 1, 1, -1)  # sign of (sigma_y x sigma_y)|r> -> |r^3|


def pairwise_concurrence_2qubit(state: PureStateExact) -> tuple[float, Fraction]:
    """Pure-state concurrence of a 2-qubit state: C = 2|c1 c4 - c2 c3| / N,
    exact square returned alongside."""
    if state.dim != 4 or state.ring != "gaussian":
        raise ValueError("expects a 2-qubit state")
    c = state.components
    det = c[0] * c[3] - c[1] * c[2]
    c_sq = Fraction(4 * det.norm(), state.norm_sq**2)
    return math.sqrt(float(c_sq)), c_sq


# ---------------------------------------------------------------------------
# the batched kernel


_PAIRS = ((0, 1), (0, 2), (1, 2))  # column order of pairwise arrays: AB, AC, BC
_SPIN_FLIP = np.outer(_Y_SIGN, _Y_SIGN)


def _kernel_peak(norm_sq: int) -> int:
    """Bound on every intermediate of concurrence_kernel and its label
    identities over states with norm_sq <= N.

    A reduced numerator has |num_ab| <= N, so |M_ab| <= 4N^2,
    |tr M| <= 16N^2, |tr M^2| <= 256N^4 and |c2| <= 384N^4; the largest
    quantity formed is 324*c2 in the C^2 = 2/9 test.
    """
    return 324 * 384 * norm_sq**4


@dataclass(frozen=True, eq=False)
class ConcurrenceArrays:
    """Exact integer invariants of S 3-qubit states with norm_sq N.

    purity[:, i] = P_i = N^2 Tr rho_i^2 for qubits A, B, C, so that
    C_i(rest)^2 = 2(1 - P_i/N^2).  For the pairs AB, AC, BC, c1 = -tr M
    and c2 = (tr^2 M - tr M^2)/2 with M = num*num_tilde the reduced
    numerator times its spin flip; M has rank <= 2, so the Wootters
    concurrence is (C*N)^2 = -c1 - 2 sqrt(c2).  F3^2 = 4*heron/(3 N^4).
    """

    norm_sq: np.ndarray  # (S,)
    purity: np.ndarray  # (S, 3)
    c1: np.ndarray  # (S, 3)
    c2: np.ndarray  # (S, 3)
    heron: np.ndarray  # (S,)


def _reduced_numerators(re: np.ndarray, im: np.ndarray, keep: tuple[int, ...]):
    """Real and imaginary parts, each (S, k, k), of the numerators of the
    reduced density matrices on the qubits in keep (big-endian order)."""
    traced = tuple(q for q in range(3) if q not in keep)
    axes = (0,) + tuple(1 + q for q in keep + traced)
    shape = (len(re), 1 << len(keep), -1)
    ar = re.reshape(-1, 2, 2, 2).transpose(axes).reshape(shape)
    ai = im.reshape(-1, 2, 2, 2).transpose(axes).reshape(shape)
    art, ait = ar.swapaxes(1, 2), ai.swapaxes(1, 2)
    return ar @ art + ai @ ait, ai @ art - ar @ ait


# States per block of concurrence_kernel: its temporaries are about 1.3 KB
# a state, so a block keeps them near 2.6 MB
KERNEL_BLOCK_STATES = 2**11


def concurrence_kernel(states: StateSet) -> ConcurrenceArrays:
    """ConcurrenceArrays of 3-qubit states, in blocks of
    KERNEL_BLOCK_STATES; a block runs in int64 when _kernel_peak at its
    largest norm_sq fits and in Python ints otherwise."""
    if not len(states) or states.ring != "gaussian":
        raise ValueError("the concurrence kernel expects 3-qubit states")
    blocks = [
        _kernel_block(*component_arrays(states[i : i + KERNEL_BLOCK_STATES], _kernel_peak))
        for i in range(0, len(states), KERNEL_BLOCK_STATES)
    ]
    return ConcurrenceArrays(*(np.concatenate(arrays) for arrays in zip(*blocks)))


def _kernel_block(re: np.ndarray, im: np.ndarray, norm_sq: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ConcurrenceArrays fields, in order, of one block of states."""
    if re.shape[1] != 8:
        raise ValueError("the concurrence kernel expects 3-qubit states")
    purity = []
    for q in range(3):
        nr, ni = _reduced_numerators(re, im, (q,))
        purity.append((nr * nr + ni * ni).sum(axis=(1, 2)))
    c1, c2 = [], []
    for pair in _PAIRS:
        nr, ni = _reduced_numerators(re, im, pair)
        tr = _SPIN_FLIP * nr[:, ::-1, ::-1]
        ti = -_SPIN_FLIP * ni[:, ::-1, ::-1]
        mr = nr @ tr - ni @ ti
        mi = nr @ ti + ni @ tr
        trace = np.trace(mr, axis1=1, axis2=2)
        trace_sq = (mr * mr.swapaxes(1, 2) - mi * mi.swapaxes(1, 2)).sum(axis=(1, 2))
        c1.append(-trace)
        c2.append((trace * trace - trace_sq) // 2)
    purity = np.stack(purity, axis=1)
    gap = (norm_sq * norm_sq)[:, None] - purity
    heron = gap.sum(axis=1) ** 2 - 2 * (gap * gap).sum(axis=1)
    if (heron < 0).any():
        raise ValueError("one-to-other concurrences violate the triangle inequality")
    return norm_sq, purity, np.stack(c1, axis=1), np.stack(c2, axis=1), heron


def _display_columns(k: ConcurrenceArrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float pairwise (S, 3), one-to-other (S, 3) and F3 (S,) values for
    printing, rounded the same way as the exact rationals they stand for:
    in the int64 regime every numerator and denominator is below 2**53,
    so each float division is correctly rounded."""
    n2 = k.norm_sq * k.norm_sq
    radicand = (-k.c1).astype(float) - 2.0 * np.sqrt(np.maximum(k.c2, 0).astype(float))
    pairwise = np.sqrt(np.maximum(radicand, 0.0)) / k.norm_sq.astype(float)[:, None]
    one_to_other = np.sqrt((2 * (n2[:, None] - k.purity) / n2[:, None]).astype(float))
    f3_values = np.sqrt((4 * k.heron / (3 * n2 * n2)).astype(float))
    return pairwise, one_to_other, f3_values


# ---------------------------------------------------------------------------
# classification


CLASS_I = "I"
CLASS_II = "II"
CLASS_III = "III"
CLASS_A = "A"
CLASS_B = "B"
UNCLASSIFIED = "Unclassified"


def _labels(k: ConcurrenceArrays, magic_classes: Sequence[str]) -> list[str]:
    """Class label of every state, decided by integer identities.

    Stabiliser states split into fully separable (I), one separable
    qubit with a maximally entangled complementary pair (II), and
    GHZ-type (III); maximal magic states of SIC type split on their
    pairwise values being all 0 (A) or all sqrt(2)/3 (B).
    """
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
    # reversed, the pair columns BC, AC, AB line up with the qubits A, B, C
    # they leave out
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


@dataclass(frozen=True, eq=False)
class EntanglementCensus:
    """Class counts and per-state labels of one 3-qubit StateSet, with its
    kernel arrays; the per-state float columns for display are built from
    them on first use."""

    lattice_name: str
    norm: int
    stabiliser_classes: dict[str, int]
    magic_classes: dict[str, int]
    other: int
    labels: tuple[str, ...]
    kernel: ConcurrenceArrays

    @cached_property
    def _columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return _display_columns(self.kernel)

    @cached_property
    def pairwise(self) -> tuple[tuple[float, float, float], ...]:  # C_AB, C_AC, C_BC
        return tuple(map(tuple, self._columns[0].tolist()))

    @cached_property
    def one_to_other(self) -> tuple[tuple[float, float, float], ...]:  # C_A(BC), C_B(AC), C_C(AB)
        return tuple(map(tuple, self._columns[1].tolist()))

    @cached_property
    def f3(self) -> tuple[float, ...]:
        return tuple(self._columns[2].tolist())


def entanglement_census(state_set: StateSet) -> EntanglementCensus:
    """Classify every state of a 3-qubit StateSet.

    Magic classes come from the exact Xi_2 classes, the rest from the
    concurrence_kernel arrays of all states."""
    k = concurrence_kernel(state_set)
    values, index = state_set.xi2_classes
    class_labels = [magic_label(xi, 8, "gaussian") for xi in values]
    labels = _labels(k, list(map(class_labels.__getitem__, index.tolist())))
    counts = Counter(labels)
    return EntanglementCensus(
        lattice_name=state_set.lattice_name,
        norm=state_set.norm,
        stabiliser_classes={c: counts[c] for c in (CLASS_I, CLASS_II, CLASS_III) if c in counts},
        magic_classes={c: counts[c] for c in (CLASS_A, CLASS_B) if c in counts},
        other=counts[UNCLASSIFIED],
        labels=tuple(labels),
        kernel=k,
    )
