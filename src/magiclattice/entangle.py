"""Concurrence-based entanglement measures on 2- and 3-qubit states.

The 3-qubit census runs on one batched kernel, concurrence_kernel.  For
every state it computes exact integers: the one-to-other purities and,
for each qubit pair, the first two characteristic coefficients of
rho*rho_tilde.  Class labels follow from integer identities on them, so
no label depends on a float; the float columns (concurrences and F3)
are derived from the same integers for display only, when first read.
pairwise_concurrence_2qubit is the pure-state formula for 2-qubit
states, as exact integer arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .magic import MAX_MAGIC_SIC, STABILISER, magic_label
from .states import StateSet, component_arrays

_Y_SIGN = (-1, 1, 1, -1)  # sign of (sigma_y x sigma_y)|r> -> |r^3|


def pairwise_concurrence_2qubit(states: StateSet) -> tuple[np.ndarray, np.ndarray]:
    """Pure-state concurrence of 2-qubit states, squared, as exact integer
    numerator and denominator arrays (S,): C^2 = 4|c0 c3 - c1 c2|^2 / N^2.

    |c0 c3| + |c1 c2| <= (|c0|^2 + |c3|^2 + |c1|^2 + |c2|^2)/2 = N/2, so
    every partial sum of the determinant's parts is at most N in absolute
    value, and the numerator at most N^2, the denominator: the arrays are
    int64 while N^2 is, and hold Python ints past it (component_arrays)."""
    if states.ring != "gaussian" or states.components.shape[1] != 4:
        raise ValueError("expects 2-qubit states")
    re, im, norm_sq = component_arrays(states, lambda n: n * n)
    det_re = re[:, 0] * re[:, 3] - im[:, 0] * im[:, 3] - re[:, 1] * re[:, 2] + im[:, 1] * im[:, 2]
    det_im = re[:, 0] * im[:, 3] + im[:, 0] * re[:, 3] - re[:, 1] * im[:, 2] - im[:, 1] * re[:, 2]
    return 4 * (det_re * det_re + det_im * det_im), norm_sq * norm_sq


# ---------------------------------------------------------------------------
# the batched kernel


# _SPLIT[q, s] holds the indices of the 4 components whose qubit q is s,
# in big-endian order of the other two qubits
_SPLIT = np.array([[[i for i in range(8) if (i >> (2 - q)) & 1 == s] for s in (0, 1)] for q in range(3)])
_SIGN = np.array(_Y_SIGN)[:, None]  # _Y_SIGN down the component axis


def _kernel_peak(norm_sq: int) -> int:
    """Bound on every intermediate of concurrence_kernel, its label
    identities and its display divisions over states with norm_sq <= N.

    Split by qubit q, a state's halves have n_0 + n_1 = N, so a pair form
    and each of its partial sums is at most |psi_s| |psi_t| <= N (Cauchy-
    Schwarz), |c1| <= (n_0 + n_1)^2 = N^2 and |Det| <= 2 n_0 n_1 <= N^2/2.
    So c2 <= N^4/4, and the largest quantity formed, 324*c2 in the
    C^2 = 2/9 test, is at most 81N^4.  Each gap N^2 - P_q is at most
    N^2/2, so 4*heron <= 4 (sum of the gaps)^2 <= 9N^4; _display_columns
    divides it by 3N^4 in float64, exactly rounded only below 2**53 =
    2**63 / 2**10.  That makes the bound 9 * 2**10 * N^4.
    """
    return 9 * 2**10 * norm_sq**4


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


# States per block of concurrence_kernel and of the class codes: the
# kernel's temporaries are about 1 KB a state, so a block keeps them near
# 0.5 MB (at 2**10 states reproduce peaked about 0.4 MiB higher; 2**8 saved
# 0.26 MiB of traced peak but made the census of BW16 l=4 and l=6 about
# 5 ms slower)
KERNEL_BLOCK_STATES = 2**9


def concurrence_kernel(states: StateSet) -> ConcurrenceArrays:
    """ConcurrenceArrays of 3-qubit states, in blocks of
    KERNEL_BLOCK_STATES written into arrays allocated once; a block runs
    in int64 when _kernel_peak at its largest norm_sq fits and in Python
    ints otherwise, and the first Python-int block widens the arrays to
    object.  No states give empty int64 arrays."""
    if states.ring != "gaussian" or states.components.shape[1] != 8:
        raise ValueError("the concurrence kernel expects 3-qubit states")
    n = len(states)
    fields = [np.empty(shape, np.int64) for shape in ((n,), (n, 3), (n, 3), (n, 3), (n,))]
    for start in range(0, n, KERNEL_BLOCK_STATES):
        block = _kernel_block(*component_arrays(states[start : start + KERNEL_BLOCK_STATES], _kernel_peak))
        if block[0].dtype == object and fields[0].dtype != object:
            fields = [field.astype(object) for field in fields]
        for field, values in zip(fields, block):
            field[start : start + len(values)] = values
    return ConcurrenceArrays(*fields)


def _pair_form(a_re, a_im, b_re, b_im) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of a^T (sigma_y x sigma_y) b, summed over
    the component axis, the second from last, of a and b; the products
    share two buffers."""
    b_re, b_im = b_re[..., ::-1, :], b_im[..., ::-1, :]
    terms = a_re * b_re
    part = a_im * b_im
    terms -= part
    terms *= _SIGN
    re = terms.sum(axis=-2)
    np.multiply(a_re, b_im, out=terms)
    terms += np.multiply(a_im, b_re, out=part)
    terms *= _SIGN
    return re, terms.sum(axis=-2)


def _kernel_block(re: np.ndarray, im: np.ndarray, norm_sq: np.ndarray) -> tuple[np.ndarray, ...]:
    """The ConcurrenceArrays fields, in order, of one block of states, in
    closed form (Wootters, PRL 80, 2245, 1998; Coffman, Kundu and
    Wootters, PRA 61, 052306, 2000).

    Split by qubit q, a state is psi_0 and psi_1, the 4-vectors of the
    other two qubits with q = 0 and q = 1.  With n_s = |psi_s|^2 and
    x = <psi_1|psi_0>, P_q = n_0^2 + n_1^2 + 2|x|^2.  The pair that leaves
    q out has the reduced numerator psi_0 psi_0^H + psi_1 psi_1^H, whose
    M = num*num_tilde shares its nonzero spectrum with Q Q^H for the
    symmetric pair forms Q_st = psi_s^T (sigma_y x sigma_y) psi_t: so
    c1 = -(|q_00|^2 + 2|q_01|^2 + |q_11|^2) and c2 = |q_01^2 - q_00 q_11|^2,
    the squared Cayley hyperdeterminant |Det|^2, the same for all three
    pairs."""
    # component-major halves, (3, 2, 4, S): g[q, s] is psi_s of qubit q
    g_re, g_im = re.T[_SPLIT], im.T[_SPLIT]
    a0, b0, a1, b1 = g_re[:, 0], g_im[:, 0], g_re[:, 1], g_im[:, 1]
    n0 = (a0 * a0 + b0 * b0).sum(axis=1)  # (3, S)
    n1 = norm_sq - n0
    x_re = (a1 * a0 + b1 * b0).sum(axis=1)
    x_im = (a1 * b0 - b1 * a0).sum(axis=1)
    purity = n0 * n0 + n1 * n1 + 2 * (x_re * x_re + x_im * x_im)  # (3, S)
    diag_re, diag_im = _pair_form(g_re, g_im, g_re, g_im)  # (3, 2, S): q_00, q_11
    off_re, off_im = _pair_form(a0, b0, a1, b1)  # (3, S): q_01
    c1 = -((diag_re * diag_re + diag_im * diag_im).sum(axis=1) + 2 * (off_re * off_re + off_im * off_im))
    # Det = q_01^2 - q_00 q_11 on the pair BC, which leaves out qubit A
    (q00_re, q11_re), (q00_im, q11_im), q01_re, q01_im = diag_re[0], diag_im[0], off_re[0], off_im[0]
    det_re = q01_re * q01_re - q01_im * q01_im - q00_re * q11_re + q00_im * q11_im
    det_im = 2 * q01_re * q01_im - q00_re * q11_im - q00_im * q11_re
    c2 = det_re * det_re + det_im * det_im
    gap = norm_sq * norm_sq - purity
    heron = gap.sum(axis=0) ** 2 - 2 * (gap * gap).sum(axis=0)
    if (heron < 0).any():
        raise ValueError("one-to-other concurrences violate the triangle inequality")
    # reversed, the qubits A, B, C give the pairs BC, AC, AB they leave out
    return norm_sq, purity.T, c1[::-1].T, c2[:, None], heron


def _display_columns(k: ConcurrenceArrays) -> np.ndarray:
    """Floats (S, 7) for printing, C_AB, C_AC, C_BC, C_A(BC), C_B(AC),
    C_C(AB) and F3, rounded as the exact rationals they stand for: in the
    int64 regime every numerator and denominator is below 2**53, so each
    float division is correctly rounded."""
    n2 = k.norm_sq * k.norm_sq
    radicand = (-k.c1).astype(float) - 2.0 * np.sqrt(np.maximum(k.c2, 0).astype(float))
    pairwise = np.sqrt(np.maximum(radicand, 0.0)) / k.norm_sq.astype(float)[:, None]
    one_to_other = np.sqrt((2 * (n2[:, None] - k.purity) / n2[:, None]).astype(float))
    f3_values = np.sqrt((4 * k.heron / (3 * n2 * n2)).astype(float))
    return np.column_stack((pairwise, one_to_other, f3_values))


# ---------------------------------------------------------------------------
# classification


CLASS_I = "I"
CLASS_II = "II"
CLASS_III = "III"
CLASS_A = "A"
CLASS_B = "B"
UNCLASSIFIED = "Unclassified"


# the classes in code order: _class_codes gives each state the index of its
# class here
CLASSES = (CLASS_I, CLASS_II, CLASS_III, CLASS_A, CLASS_B, UNCLASSIFIED)


def _class_codes(k: ConcurrenceArrays, stab: np.ndarray, sic: np.ndarray) -> np.ndarray:
    """The int8 code, an index into CLASSES, of every state's class,
    decided by integer identities in blocks of KERNEL_BLOCK_STATES; stab
    and sic flag the states whose magic class is STABILISER and
    MAX_MAGIC_SIC.

    Stabiliser states split into fully separable (I), one separable
    qubit with a maximally entangled complementary pair (II), and
    GHZ-type (III); maximal magic states of SIC type split on their
    pairwise values being all 0 (A) or all sqrt(2)/3 (B).
    """
    codes = np.empty(len(k.norm_sq), np.int8)
    for start in range(0, len(codes), KERNEL_BLOCK_STATES):
        rows = slice(start, start + KERNEL_BLOCK_STATES)
        n2 = (k.norm_sq[rows] * k.norm_sq[rows])[:, None]
        purity, c1, c2 = k.purity[rows], k.c1[rows], k.c2[rows]
        separable = purity == n2  # C_i(rest) = 0
        maximal = 2 * purity == n2  # C_i(rest)^2 = 1
        pair_zero = (c1 * c1 == 4 * c2).all(axis=1)  # C = 0 for every pair
        d = -c1 - n2
        pair_one = (d >= 0) & (d * d == 4 * c2)  # C = 1
        d = -9 * c1 - 2 * n2
        pair_b = ((d >= 0) & (d * d == 324 * c2)).all(axis=1)  # C^2 = 2/9 for every pair
        # reversed, the pair columns BC, AC, AB line up with the qubits A, B,
        # C they leave out
        class_ii = (
            (separable.sum(axis=1) == 1)
            & (maximal.sum(axis=1) == 2)
            & (separable & pair_one[:, ::-1]).any(axis=1)
        )
        stab_rows = stab[rows]
        sic_rows = sic[rows] & (3 * purity == 2 * n2).all(axis=1)  # C_i(rest)^2 = 2/3
        conditions = [
            stab_rows & separable.all(axis=1),
            stab_rows & class_ii,
            stab_rows & maximal.all(axis=1) & pair_zero,
            sic_rows & pair_zero,
            sic_rows & pair_b,
        ]
        codes[rows] = np.select(conditions, list(range(5)), len(CLASSES) - 1)
    return codes


@dataclass(frozen=True, eq=False)
class EntanglementCensus:
    """Class counts and per-state labels of one 3-qubit StateSet, with its
    kernel arrays; the per-state floats for display, ``display``, are
    built from them on first use."""

    lattice_name: str
    norm: int
    stabiliser_classes: dict[str, int]
    magic_classes: dict[str, int]
    other: int
    labels: tuple[str, ...]
    kernel: ConcurrenceArrays

    @cached_property
    def display(self) -> np.ndarray:  # (S, 7): C_AB, C_AC, C_BC, C_A(BC), C_B(AC), C_C(AB), F3
        return _display_columns(self.kernel)


def entanglement_census(state_set: StateSet) -> EntanglementCensus:
    """Classify every state of a 3-qubit StateSet.

    Magic classes come from the exact Xi_2 classes, each labelled once,
    the rest from the concurrence_kernel arrays of all states."""
    k = concurrence_kernel(state_set)
    values, index = state_set.xi2_classes
    magic = [magic_label(xi, 8, "gaussian") for xi in values]
    stab = np.array([label == STABILISER for label in magic], bool)
    sic = np.array([label == MAX_MAGIC_SIC for label in magic], bool)
    codes = _class_codes(k, stab[index], sic[index])
    counts = dict(zip(CLASSES, np.bincount(codes, minlength=len(CLASSES)).tolist()))
    return EntanglementCensus(
        lattice_name=state_set.lattice_name,
        norm=state_set.norm,
        stabiliser_classes={c: counts[c] for c in (CLASS_I, CLASS_II, CLASS_III) if counts[c]},
        magic_classes={c: counts[c] for c in (CLASS_A, CLASS_B) if counts[c]},
        other=counts[UNCLASSIFIED],
        labels=tuple(map(CLASSES.__getitem__, codes.tolist())),
        kernel=k,
    )
