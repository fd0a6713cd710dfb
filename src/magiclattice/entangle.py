"""Concurrence-based entanglement measures on 2- and 3-qubit states.

The 3-qubit census runs on one batched kernel, concurrence_kernel.  For
every state it computes exact integers: the one-to-other purities and,
for each qubit pair, the first two characteristic coefficients of
rho*rho_tilde.  Class labels follow from integer identities on them, so
no label depends on a float; the float columns (concurrences and F3)
are derived from the same integers for display only.

The other 3-qubit routines are the kernel's test oracles: exact reduced
density matrices with Gaussian-integer numerators over the denominator
norm_sq, one-to-other concurrences and F3 from their purities, and the
Wootters concurrence from the real roots of the exact characteristic
quartic, found by Sturm-sequence isolation plus bisection.
pairwise_concurrence_2qubit is the pure-state formula for 2-qubit
states.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .exact import GaussianInt
from .magic import MAX_MAGIC_SIC, STABILISER, magic_label
from .states import PureStateExact, StateSet, component_arrays

ROOT_TOL = 1e-12

_Y_SIGN = (-1, 1, 1, -1)  # sign of (sigma_y x sigma_y)|r> -> |r^3|


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


_ROOT_CACHE: dict[tuple[int, ...], tuple[float, ...]] = {}


def _cached_roots(coeffs: tuple[int, ...]) -> tuple[float, ...]:
    hit = _ROOT_CACHE.get(coeffs)
    if hit is None:
        hit = tuple(_real_roots_with_multiplicity(coeffs))
        _ROOT_CACHE[coeffs] = hit
    return hit


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


def wootters_concurrence(rho: DensityMatrixExact) -> float:
    """max(0, eta1 - eta2 - eta3 - eta4) with eta the decreasing square
    roots of the eigenvalues of rho * rho_tilde."""
    if rho.dim != 4:
        raise ValueError("wootters_concurrence expects a 2-qubit density matrix")
    num = [list(row) for row in rho.num]
    tilde = _rho_tilde_num(num)
    m = [
        [
            sum((num[i][k] * tilde[k][j] for k in range(4)), GaussianInt(0))
            for j in range(4)
        ]
        for i in range(4)
    ]
    coeffs = _char_poly_descending(m)
    mus = _cached_roots(coeffs)
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


def pairwise_concurrence_2qubit(state: PureStateExact) -> tuple[float, Fraction]:
    """Pure-state concurrence of a 2-qubit state: C = 2|c1 c4 - c2 c3| / N,
    exact square returned alongside."""
    if state.dim != 4 or state.ring != "gaussian":
        raise ValueError("expects a 2-qubit state")
    c = state.components
    det = c[0] * c[3] - c[1] * c[2]
    c_sq = Fraction(4 * det.norm(), state.norm_sq**2)
    return math.sqrt(float(c_sq)), c_sq


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


def concurrence_kernel(states: StateSet | Sequence[PureStateExact]) -> ConcurrenceArrays:
    """ConcurrenceArrays of 3-qubit states, in int64 when _kernel_peak
    fits and in Python ints otherwise."""
    if not len(states):
        raise ValueError("the concurrence kernel expects 3-qubit states")
    re, im, norm_sq = component_arrays(states, _kernel_peak)
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
    return ConcurrenceArrays(norm_sq, purity, np.stack(c1, axis=1), np.stack(c2, axis=1), heron)


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


@dataclass(frozen=True)
class ConcurrenceProfile:
    pairwise: tuple[float, float, float]  # C_AB, C_AC, C_BC
    one_to_other: tuple[float, float, float]  # C_A(BC), C_B(AC), C_C(AB)
    one_to_other_sq: tuple[Fraction, Fraction, Fraction]
    f3: float
    f3_sq: Fraction
    label: str


def classify_entanglement(state: PureStateExact, magic_class: str) -> ConcurrenceProfile:
    """Profile + class label of one 3-qubit state: concurrence_kernel
    applied to it, with the exact squares as Fractions."""
    k = concurrence_kernel([state])
    pairwise, one_to_other, f3_values = _display_columns(k)
    n2 = state.norm_sq * state.norm_sq
    return ConcurrenceProfile(
        pairwise=tuple(pairwise[0].tolist()),
        one_to_other=tuple(one_to_other[0].tolist()),
        one_to_other_sq=tuple(Fraction(2 * (n2 - int(p)), n2) for p in k.purity[0]),
        f3=float(f3_values[0]),
        f3_sq=Fraction(4 * int(k.heron[0]), 3 * n2 * n2),
        label=_labels(k, [magic_class])[0],
    )


@dataclass(frozen=True)
class EntanglementCensus:
    """Class counts and per-state labels of one 3-qubit StateSet, with
    the per-state float columns for display."""

    lattice_name: str
    norm: int
    stabiliser_classes: dict[str, int]
    magic_classes: dict[str, int]
    other: int
    labels: tuple[str, ...]
    pairwise: tuple[tuple[float, float, float], ...]  # C_AB, C_AC, C_BC
    one_to_other: tuple[tuple[float, float, float], ...]  # C_A(BC), C_B(AC), C_C(AB)
    f3: tuple[float, ...]

    def histogram(self) -> dict[str, int]:
        out = dict(self.stabiliser_classes)
        out.update(self.magic_classes)
        if self.other:
            out[UNCLASSIFIED] = self.other
        return out


def entanglement_census(state_set: StateSet) -> EntanglementCensus:
    """Classify every state of a 3-qubit StateSet.

    Magic classes come from the exact Xi_2 batch, the rest from one
    concurrence_kernel call over all states."""
    k = concurrence_kernel(state_set)
    label_of = {xi: magic_label(xi, 8, "gaussian") for xi in set(state_set.xi2)}
    labels = _labels(k, list(map(label_of.__getitem__, state_set.xi2)))
    counts = Counter(labels)
    pairwise, one_to_other, f3_values = _display_columns(k)
    return EntanglementCensus(
        lattice_name=state_set.lattice_name,
        norm=state_set.norm,
        stabiliser_classes={c: counts[c] for c in (CLASS_I, CLASS_II, CLASS_III) if c in counts},
        magic_classes={c: counts[c] for c in (CLASS_A, CLASS_B) if c in counts},
        other=counts[UNCLASSIFIED],
        labels=tuple(labels),
        pairwise=tuple(map(tuple, pairwise.tolist())),
        one_to_other=tuple(map(tuple, one_to_other.tolist())),
        f3=tuple(f3_values.tolist()),
    )
