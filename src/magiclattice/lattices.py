"""Lattice data and exact shell enumeration for E8, BW16 and E6.

A shell is the full set of lattice vectors of a given square norm.  Each
lattice is given by a basis over its ring of integers, Z[i] for E8 and
BW16 and Z[omega] for E6, and a lattice vector by its ring-coefficient
pairs, on which the ring's units act as on ring elements.  The enumerator
runs a branch-and-bound over the coefficient lattice using an exact LDL^T
decomposition of the Gram matrix, level by level: each level decides one
coefficient for every partial vector at once, in int64 and int32 numpy
arrays, and hands its vectors out in chunks, so that a shell can be
streamed through a census without being held whole.  It finds one vector
per unit orbit, and a whole shell is their unit images.  After clearing
denominators every bound test is integer arithmetic within a checked
headroom, so no solution can be lost to rounding.

E8 and BW16 live in R^8 and R^16 (C^4 and C^8) with half-integer
coordinates; their ambient vectors are stored doubled (scale 2) so that
every coordinate is an integer.  E6 lives in C^3 over the Eisenstein
integers and is enumerated through its rational 6-dimensional real form.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import repeat
from math import gcd, isqrt
from pathlib import Path
from tokenize import TokenError
from typing import Generator, Iterable, Iterator, Optional, Sequence

import numpy as np

from .exact import EISENSTEIN_UNITS, GAUSSIAN_UNITS, OMEGA, RINGS, THETA, EisensteinInt, GaussianInt, RingElement

DEFAULT_NODE_BUDGET = 10**10
# Children per search chunk: a level whose frontier would expand past this
# many nodes is searched in runs of parents, or of one parent's children
# (see _search_chunks).  Smaller chunks hold less memory, but each costs
# fixed time: at 4,096 the BW16 l=8 census ran about 15 % slower.
CHUNK_NODES = 3 * 2**11
# Rows per float64 block of the ambient-row matmul (see _ambient_rows).
MATMUL_ROWS = 2**10
CACHE_ENV_VAR = "MAGICLATTICE_CACHE"


class EnumerationBudgetExceeded(RuntimeError):
    def __init__(self, budget: int, visited: int) -> None:
        super().__init__(
            f"shell enumeration exceeded the node budget: "
            f"visited {visited} nodes, budget {budget}"
        )
        self.budget = budget
        self.visited = visited


class ShellCacheError(RuntimeError):
    """Raised when a cached shell file is malformed or inconsistent."""


class HeadroomError(ValueError):
    """Raised when a shell's arrays or its search could overflow int64, or
    the search frontier int32 (see _int64_bounds)."""


# ---------------------------------------------------------------------------
# ring bases

_G = GaussianInt

# E8 over Z[i], in doubled ambient coordinates c_k = x_k + i*x_{D+k}: an
# echelon basis of the real generator rows over the Gaussian integers
# (Conway-Sloane, SPLAG ch. 7, 8), checked against the real table it
# replaces by index (determinant) and containment in the tests.
E8_BASIS: tuple[tuple[GaussianInt, ...], ...] = (
    (_G(-1, -1), _G(-1, -1), _G(-1, 1), _G(-1, 1)),
    (_G(0), _G(2), _G(-2), _G(0)),
    (_G(0), _G(0), _G(2), _G(-2)),
    (_G(0), _G(0), _G(0), _G(2, -2)),
)

# BW16 as E8's Barnes-Wall double {(u, u + v): u in E8, v in (1+i) E8}
# (Nebe, Rains and Sloane, "A simple construction for the Barnes-Wall
# lattices", 2002): rows (beta, beta) and (0, (1+i) beta), the new qubit
# the top bit of a component's index
BW16_BASIS: tuple[tuple[GaussianInt, ...], ...] = tuple((*beta, *beta) for beta in E8_BASIS) + tuple(
    (_G(0),) * 4 + tuple(_G(1, 1) * z for z in beta) for beta in E8_BASIS
)

# E6 over Z[omega], in ambient coordinates a + b*omega (scale 1).
E6_GENERATOR: tuple[tuple[EisensteinInt, ...], ...] = (
    (THETA, EisensteinInt(0), EisensteinInt(0)),
    (EisensteinInt(0), THETA, EisensteinInt(0)),
    (EisensteinInt(1), EisensteinInt(1), EisensteinInt(1)),
)


# ---------------------------------------------------------------------------
# small exact matrix helpers


def _inverse_diagonal(g: Sequence[Sequence[int]], den: int) -> tuple[Fraction, ...]:
    """The diagonal of (g / den)^-1 for a positive definite integer matrix
    g, by fraction-free (Bareiss) Gauss-Jordan elimination of [g | I]:
    every division is exact, and at the end the left block is det(g) * I
    and the right block det(g) * g^-1."""
    n = len(g)
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(g)]
    previous = 1
    for k in range(n):
        pivot, pivot_row = rows[k][k], rows[k]
        for i, row in enumerate(rows):
            if i != k:
                factor = row[k]
                rows[i] = [(pivot * x - factor * y) // previous for x, y in zip(row, pivot_row)]
        previous = pivot
    return tuple(Fraction(den * rows[i][n + i], previous) for i in range(n))


def _ldl(g: Sequence[Sequence[Fraction]]) -> tuple[list[Fraction], list[list[Fraction]]]:
    """g = L D L^T with unit lower-triangular L; requires g positive definite."""
    n = len(g)
    d = [Fraction(0)] * n
    lo = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        d[j] = g[j][j] - sum(lo[j][k] * lo[j][k] * d[k] for k in range(j))
        if d[j] <= 0:
            raise ValueError("Gram matrix is not positive definite")
        lo[j][j] = Fraction(1)
        for i in range(j + 1, n):
            lo[i][j] = (g[i][j] - sum(lo[i][k] * lo[j][k] * d[k] for k in range(j))) / d[j]
    return d, lo


def _lcm(values: Iterable[int]) -> int:
    out = 1
    for v in values:
        out = out * v // gcd(out, v)
    return out


# ---------------------------------------------------------------------------
# lattice specification


@dataclass(frozen=True)
class LatticeSpec:
    name: str
    ring: str  # "gaussian" or "eisenstein"
    complex_dim: int
    real_dim: int
    coeff_dim: int
    scale: int  # ambient coordinates are stored times this factor
    gram: tuple[tuple[Fraction, ...], ...]  # coefficient-space Gram matrix
    gram_inv_diag: tuple[Fraction, ...]
    scaled_generator: tuple[tuple[int, ...], ...]  # scale*M; ambient row = coeffs @ this

    def __repr__(self) -> str:  # pragma: no cover
        return f"LatticeSpec({self.name})"


def _real_generator(basis: Sequence[Sequence[RingElement]], unit: RingElement) -> tuple[tuple[int, ...], ...]:
    """The integer generator of the lattice with ring basis beta_1..beta_n:
    coefficient vector (a_1, ..., a_n, b_1, ..., b_n) is the lattice vector
    sum_k (a_k + b_k*unit) * beta_k, so row k is beta_k and row n + k is
    unit * beta_k, each as an ambient row: (x_1..x_D, y_1..y_D) for the
    Gaussian coordinates x_k + i*y_k, and (a_1, b_1, ..., a_D, b_D) for
    the Eisenstein coordinates a_k + b_k*omega."""
    rows = []
    for u in (type(unit)(1), unit):
        for beta in basis:
            coords = [(u * z).coords() for z in beta]
            pairs = zip(*coords) if isinstance(unit, GaussianInt) else coords
            rows.append(tuple(x for pair in pairs for x in pair))
    return tuple(rows)


def _gram(rows: Sequence[Sequence[int]], ring: str) -> list[list[int]]:
    """Twice the Gram matrix of integer rows of ring coordinates under
    the ring's norm form, x^2 + T*xy + y^2 on each (x, y) pair the row
    holds in turn.  With T = 0 it is twice the dot product, whatever the
    order of the coordinates, so the split Gaussian rows take it too."""
    t = RINGS[ring].T

    def dot(r: Sequence[int], s: Sequence[int]) -> int:
        return sum(
            2 * (r[k] * s[k] + r[k + 1] * s[k + 1]) + t * (r[k] * s[k + 1] + r[k + 1] * s[k])
            for k in range(0, len(r), 2)
        )

    return [[dot(r, s) for s in rows] for r in rows]


_LATTICE_CACHE: dict[str, LatticeSpec] = {}


def build_lattice(name: str) -> LatticeSpec:
    """Construct the exact lattice data for "E8", "BW16" or "E6"."""
    key = name.upper()
    if key in _LATTICE_CACHE:
        return _LATTICE_CACHE[key]

    if key == "E8":
        scaled, scale, ring, cdim, rdim = _real_generator(E8_BASIS, GaussianInt(0, 1)), 2, "gaussian", 4, 8
    elif key == "BW16":
        scaled, scale, ring, cdim, rdim = _real_generator(BW16_BASIS, GaussianInt(0, 1)), 2, "gaussian", 8, 16
    elif key == "E6":
        scaled, scale, ring, cdim, rdim = _real_generator(E6_GENERATOR, OMEGA), 1, "eisenstein", 3, 6
    else:
        raise ValueError(f"unknown lattice {name!r}; expected E8, BW16 or E6")

    # the Gram matrix times den, in integers
    gram, den = _gram(scaled, ring), 2 * scale * scale

    spec = LatticeSpec(
        name=key,
        ring=ring,
        complex_dim=cdim,
        real_dim=rdim,
        coeff_dim=len(gram),
        scale=scale,
        gram=tuple(tuple(Fraction(x, den) for x in row) for row in gram),
        gram_inv_diag=_inverse_diagonal(gram, den),
        scaled_generator=scaled,
    )
    _LATTICE_CACHE[key] = spec
    return spec


def coordinate_bounds(lattice: LatticeSpec, norm: int) -> tuple[int, ...]:
    """Largest possible |a_i| on the shell of the given square norm,
    floor(sqrt(norm * (G^-1)_ii)) per coefficient."""
    if norm <= 0:
        raise ValueError("shell norm must be positive")
    out = []
    for d in lattice.gram_inv_diag:
        val = Fraction(norm) * d
        out.append(isqrt(val.numerator // val.denominator))
    return tuple(out)


# ---------------------------------------------------------------------------
# shell container


@dataclass(frozen=True, eq=False)
class Shell:
    """Vectors of one shell, as int64 arrays.

    coeffs[k] holds the lattice coefficients of row k (the array the shell
    cache stores) and rows[k] its ambient row: for E8/BW16 the 8/16 real
    coordinates times the lattice scale, for E6 the (a, b) integer pairs
    of the three Eisenstein coordinates a + b*omega, flattened to 6
    integers.  Each row stands for multiplicity shell vectors: 1 when the
    rows are the vectors themselves (a whole shell, sorted by
    coefficients: enumerate_shell, load_shell), the number of ring units
    when they are one vector per unit orbit, the one the search finds (a
    chunk of stream_shell).
    """

    lattice: LatticeSpec
    norm: int
    coeffs: np.ndarray  # (N, coeff_dim) int64
    rows: np.ndarray  # (N, real_dim) int64
    multiplicity: int = 1

    @property
    def count(self) -> int:
        return len(self.coeffs)

    @property
    def vectors(self) -> int:
        """The number of shell vectors the rows stand for."""
        return self.count * self.multiplicity

    def __repr__(self) -> str:  # pragma: no cover
        return f"Shell({self.lattice.name}, norm={self.norm}, count={self.count})"


# The ring arithmetic of exact.QuadraticInt on int64 arrays of
# coordinates (x, y) of x + y*u, u = i or omega, with u^2 = T*u - 1 and T
# read from exact.RINGS.

# the units of each ring as (x, y) coordinates, by the ring's name
UNIT_COORDS = {
    units[0].RING: np.array([u.coords() for u in units], dtype=np.int64) for units in (GAUSSIAN_UNITS, EISENSTEIN_UNITS)
}


def ring_mul(
    x: np.ndarray, y: np.ndarray, c: np.ndarray, d: np.ndarray, ring: str, out: tuple = (None, None)
) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates of (x + y*u)(c + d*u) = (xc - yd) + (xd + yc +
    T*yd)*u, elementwise with broadcasting (c and d of one shape), into
    the arrays out if given (neither may share memory with x or y).  One
    temporary holds yd, then T*yd, then yc."""
    re = np.multiply(x, c, out=out[0])
    im = np.multiply(x, d, out=out[1])
    term = y * d
    re -= term
    term *= RINGS[ring].T
    im += term
    im += np.multiply(y, c, out=term)
    return re, im


def ring_conj(x: np.ndarray, y: np.ndarray, ring: str) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates of conj(x + y*u) = (x + T*y) - y*u."""
    return x + RINGS[ring].T * y, -y


def ring_matmul(x: np.ndarray, y: np.ndarray, ring: str) -> np.ndarray:
    """Matrix products of ring arrays (..., n, m, 2) @ (..., m, p, 2), the
    last axis the (x, y) coordinates, broadcast over the leading axes, by
    ring_mul's rule."""
    a, b, c, d = x[..., 0], x[..., 1], y[..., 0], y[..., 1]
    bd = b @ d
    return np.stack((a @ c - bd, a @ d + b @ c + RINGS[ring].T * bd), axis=-1)


def unit_images(lattice: LatticeSpec, coeffs: np.ndarray) -> np.ndarray:
    """The coefficient rows of u*v for every unit u of the lattice's ring
    and every row v of coeffs, unit by unit: a unit acts on each pair
    (a_k, b_k) as on the ring element a_k + b_k*u (see _real_generator)."""
    half, units = lattice.coeff_dim // 2, UNIT_COORDS[lattice.ring].tolist()
    a, b = coeffs[:, :half], coeffs[:, half:]
    images = np.empty((len(units), *coeffs.shape), dtype=np.int64)
    for image, (c, d) in zip(images, units):
        ring_mul(a, b, c, d, lattice.ring, out=(image[:, :half], image[:, half:]))
    return images.reshape(-1, lattice.coeff_dim)


def ring_coords(shell: Shell) -> np.ndarray:
    """(N, dim, 2) view of a shell's ambient rows as ring coordinates."""
    rows, dim = shell.rows, shell.lattice.complex_dim
    if shell.lattice.ring == "gaussian":  # c_k = x_k + i*x_{D+k}
        return rows.reshape(len(rows), 2, dim).swapaxes(1, 2)
    return rows.reshape(len(rows), dim, 2)


def first_nonzero(coords: np.ndarray) -> np.ndarray:
    """(2, N): the coordinates of each row's first nonzero component."""
    nonzero = coords[..., 0] != 0
    nonzero |= coords[..., 1] != 0
    return coords[np.arange(len(coords)), nonzero.argmax(axis=1)].T


def in_sector(x: np.ndarray, y: np.ndarray, ring: str) -> np.ndarray:
    """Whether each ring element with coordinates (x, y) lies in the
    canonical sector y >= 0, x > -T*y (exact.QuadraticInt.in_sector).
    Each unit orbit of a nonzero element has exactly one member there."""
    return (y >= 0) & (x > -RINGS[ring].T * y)


def _divisors(n: int) -> list[int]:
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def shell_size(lattice: LatticeSpec, norm: int) -> int:
    """The number of vectors of square norm norm > 0: the coefficient of
    the lattice's theta series, from its closed form (Conway-Sloane,
    SPLAG ch. 4; Ebeling, Lattices and Codes), in exact integers."""
    if norm <= 0:
        raise ValueError("shell norm must be positive")
    if lattice.name == "E6":  # with n = l/3 and chi the non-trivial character mod 3
        if norm % 3:
            return 0
        n, chi = norm // 3, (0, 1, -1)
        return sum((81 * chi[n // d % 3] - 9 * chi[d % 3]) * d * d for d in _divisors(n))
    if norm % 2:
        return 0
    m = norm // 2
    if lattice.name == "E8":
        return 240 * sum(d**3 for d in _divisors(m))
    # BW16: the coefficient of q^m in (E8(q) + 16 E8(q^2) - 480 q prod_k
    # (1 - q^k)^8 (1 - q^2k)^8) / 17, E8 = 1 + 480 sum sigma_7(n) q^n; eta
    # is that product to q^(m-1), with (1 - q^k) 16 times for even k
    eta = [1] + [0] * (m - 1)
    for k in range(1, m):
        for _ in range(8 if k % 2 else 16):
            for i in range(m - 1, k - 1, -1):
                eta[i] -= eta[i - k]
    e8_m, e8_half = (480 * sum(d**7 for d in _divisors(n)) for n in (m, m // 2))
    return (e8_m + 16 * e8_half * (m % 2 == 0) - 480 * eta[m - 1]) // 17


@dataclass(frozen=True)
class ThetaCheckResult:
    ok: bool
    expected: int
    actual: int


def theta_check(lattice: LatticeSpec, norm: int, count: int) -> ThetaCheckResult:
    """Compare the vector count of a shell with its theta series."""
    expected = shell_size(lattice, norm)
    return ThetaCheckResult(ok=(count == expected), expected=expected, actual=count)


# ---------------------------------------------------------------------------
# branch-and-bound enumeration


def _integer_form(lattice: LatticeSpec) -> tuple[tuple[int, ...], list, list[int], list[int], int]:
    """Integerized LDL data in the search's coordinate order.

    Returns (order, lam, mus, weights, common) where order[pos] is the
    original coefficient index at search position pos (position 0 is
    solved innermost), and for each position j:

        lam[j]     list of (pos, coef) pairs with pos > j
        mus[j]     positive integer
        weights[j] positive integer

    such that common * Q(a) == sum_j weights[j] * t_j^2 with
    t_j = mus[j]*x_j + sum_{(i,c) in lam[j]} c*x_i over search coordinates x.

    The ring-coefficient pairs (a_k, b_k), coefficients k and n/2 + k,
    take two adjacent positions each, a above b, so that the search
    decides a pair's a and then its b; pairs with small coordinate bounds
    (gram_inv_diag, equal for a_k and b_k) go outermost.
    """
    n = lattice.coeff_dim
    half = n // 2
    pairs = sorted(range(half), key=lambda k: (-lattice.gram_inv_diag[k], k))
    order = [i for k in pairs for i in (half + k, k)]
    g = [[lattice.gram[order[p]][order[q]] for q in range(n)] for p in range(n)]
    d, lo = _ldl(g)

    mus: list[int] = []
    lam: list[list[tuple[int, int]]] = []
    weights_frac: list[Fraction] = []
    for j in range(n):
        denoms = [lo[i][j].denominator for i in range(j + 1, n)]
        mu = _lcm(denoms) if denoms else 1
        mus.append(mu)
        lam.append(
            [
                (i, int(lo[i][j] * mu))
                for i in range(j + 1, n)
                if lo[i][j] != 0
            ]
        )
        weights_frac.append(d[j] / (mu * mu))
    common = _lcm(w.denominator for w in weights_frac)
    weights = [int(w * common) for w in weights_frac]
    return tuple(order), lam, mus, weights, common


_FORM_CACHE: dict[str, tuple] = {}


def _form_for(lattice: LatticeSpec) -> tuple:
    if lattice.name not in _FORM_CACHE:
        _FORM_CACHE[lattice.name] = _integer_form(lattice)
    return _FORM_CACHE[lattice.name]


def _isqrt(values: np.ndarray) -> np.ndarray:
    """floor(sqrt(v)) of every int64 v, 0 <= v < 2**52 (see _int64_bounds):
    such a v is an exact float64, and when v < k^2 its correctly rounded
    root still falls short of k, so truncating it is exact."""
    return np.sqrt(values.astype(np.float64)).astype(np.int64)


def _search_leads(lattice: LatticeSpec, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The a and the b of each row's first nonzero coefficient pair
    (a_k, b_k), taking the pairs in search order, outermost first
    (_integer_form).  The search keeps a vector only when this pair lies
    in the canonical sector."""
    order = _form_for(lattice)[0]
    a, b = coeffs[:, order[-1]].copy(), coeffs[:, order[-2]].copy()
    for ka, kb in zip(order[-3::-2], order[-4::-2]):  # the pairs below, taken by the rows still zero
        zero = (a == 0) & (b == 0)
        if not zero.any():
            break
        a[zero], b[zero] = coeffs[zero, ka], coeffs[zero, kb]
    return a, b


def _pair_cap(a: np.ndarray, ring: str) -> np.ndarray:
    """The largest b that puts a pair (a, b) with a >= 0 in the canonical
    sector, or makes it zero: a - 1 over Z[omega] (b >= 0, a > b) and no
    limit over Z[i] (a > 0, b >= 0), but 0 when a = 0."""
    if ring == "gaussian":
        return np.where(a == 0, 0, np.iinfo(np.int64).max)
    return np.maximum(a - 1, 0)


def _search_chunks(
    lattice: LatticeSpec, norm: int, node_budget: int
) -> Generator[np.ndarray, None, int]:
    """One coefficient vector of the given norm per unit orbit, as chunks
    of (N, coeff_dim) int64 rows in no particular order; returns the
    branch-and-bound node count.

    The search (Fincke-Pohst) decides one search coordinate per level,
    from the outermost (n - 1) to the innermost (0), for every partial
    vector of the frontier at once.  A frontier node carries its remaining
    budget common * norm - sum w t^2, whether every pair above its current
    one is zero, and, for every level j still to come, the part of sigma_j
    that the decided coordinates contribute.  A unit acts on every
    coefficient pair (a_k, b_k) as on a ring element, so each unit orbit
    has exactly one vector whose first nonzero pair, in search order, lies
    in the canonical sector, and only that one is searched: while the
    pairs above are zero, a pair's a is at least 0 and its b lies in
    [0, _pair_cap(a)].  Each level records the parent and the coordinate
    of its nodes, from which the vectors are read back at level 0.  When a
    level's children would pass CHUNK_NODES, its frontier is cut into runs
    of parents whose children stay within it, and a parent that passes it
    alone has its children cut into runs of CHUNK_NODES values; each run is
    searched on its own down to level 0, where it yields one chunk, so
    every run yields one, empty or not, and no level of a run holds more
    than CHUNK_NODES nodes.  Each level's expansion (expand) and the
    read-back (read_back) are functions whose temporaries die on return,
    so a run suspended while a run below it is searched, or while its
    chunk is out, holds only its frontier (sigmas, remaining, lead), its
    tree and its cut points: nothing of a level it has finished.  The node
    count is a depth-first search's: every child of a node above level 0,
    and every level-1 node once more at level 0; a level is counted, and
    the budget checked, before its children are built.  The caller checks
    the int64 headroom first."""
    order, lam, mus, weights, common = _form_for(lattice)
    n, ring = lattice.coeff_dim, lattice.ring
    lam_mat = np.zeros((n, n), dtype=np.int32)  # sigma_j = sum_i lam_mat[j, i] * x_i
    for j, pairs in enumerate(lam):
        for i, c in pairs:
            lam_mat[j, i] = c
    visited = 0

    def expand(level, offset, sigmas, remaining, lead, tree, first):
        # the frontier, nodes offset, offset + 1, ... of tree[-1], decides
        # level next; sigmas is (levels to come, nodes), and lead marks the
        # nodes whose pairs above the current one are all zero.  Returns
        # either the runs to search on their own, as (start, stop, first)
        # over the frontier, and None, or None and the frontier of the
        # level below as (sigmas, remaining, lead, tree).  Given first,
        # the frontier is one node whose children at this level the caller
        # has counted, and only those from first on, at most CHUNK_NODES
        # of them, are built
        nonlocal visited
        w, mu, sigma = weights[level], mus[level], sigmas[level]
        s = _isqrt(remaining // w)
        lo = -((s + sigma) // mu)  # the x with |mu*x + sigma| <= s
        hi = (s - sigma) // mu
        lo[lead & (lo < 0)] = 0
        if level % 2 == 0:  # the b of a pair whose a the level above decided
            a = tree[-1][1][offset : offset + len(lo)]
            hi = np.where(lead, np.minimum(hi, _pair_cap(a, ring)), hi)
        counts = np.maximum(hi - lo + 1, 0)
        total = int(counts.sum())
        if first is not None:
            lo, hi = np.array([first]), np.minimum(hi, first + CHUNK_NODES - 1)
            counts = hi - lo + 1
        elif total > CHUNK_NODES and len(counts) > 1:
            ends, cuts = np.cumsum(counts), [0]
            while cuts[-1] < len(ends):
                start = cuts[-1]
                base = ends[start - 1] if start else 0
                cuts.append(max(int(np.searchsorted(ends, base + CHUNK_NODES, side="right")), start + 1))
            cuts = np.array(cuts, dtype=np.int32)  # held while the runs are searched: 4 bytes a cut, not a tuple a run
            return zip(cuts[:-1], cuts[1:], repeat(None)), None
        else:
            visited += total
            if visited > node_budget:
                raise EnumerationBudgetExceeded(node_budget, visited)
            if total > CHUNK_NODES:  # one node
                return zip(repeat(0), repeat(1), range(int(lo[0]), int(hi[0]) + 1, CHUNK_NODES)), None
        parent = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
        x = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts - lo, counts)
        t = mu * x + sigma[parent]  # int64, as x is
        lead = lead[parent]
        x = x.astype(np.int32)
        if level % 2 == 0:
            lead &= (a[parent] == 0) & (x == 0)
        sigmas = sigmas[:level, parent] + lam_mat[:level, level, None] * x
        return None, (sigmas, remaining[parent] - w * t * t, lead, [*tree, (parent + offset, x)])

    def read_back(sigmas, remaining, lead, tree):
        # level 0, the b of the innermost pair, in closed form: t_0 =
        # +-sqrt(remaining / w_0) when that is an integer, and x_0 =
        # (t_0 - sigma_0) / mu_0 when that is one; returns the frontier's
        # vectors
        nonlocal visited
        visited += len(remaining)
        if visited > node_budget:
            raise EnumerationBudgetExceeded(node_budget, visited)
        q, rest = np.divmod(remaining, weights[0])
        r = _isqrt(q)
        node = np.flatnonzero((rest == 0) & (r * r == q))
        r = r[node]
        x0, rest = np.divmod(np.stack([r, -r]) - sigmas[0, node], mus[0])
        cap = _pair_cap(tree[-1][1][node], ring)
        keep = (rest == 0) & ~(lead[node] & ((x0 < 0) | (x0 > cap)))
        keep[1] &= r != 0  # t_0 = 0 once
        sign, hit = np.nonzero(keep)
        node = node[hit]
        coeffs = np.empty((len(node), n), dtype=np.int64)
        coeffs[:, order[0]] = x0[sign, hit]
        for level, (parent, x) in zip(range(1, n), reversed(tree)):
            coeffs[:, order[level]] = x[node]
            node = parent[node]
        return coeffs

    def descend(top, offset, sigmas, remaining, lead, tree, first=None):
        # the run from level top down, one expand per level
        for level in range(top, 0, -1):
            runs, frontier = expand(level, offset, sigmas, remaining, lead, tree, first)
            if frontier is None:
                for start, stop, first in runs:
                    yield from descend(
                        level, offset + start, sigmas[:, start:stop], remaining[start:stop],
                        lead[start:stop], tree, first,
                    )
                return
            (sigmas, remaining, lead, tree), offset, first = frontier, 0, None
        yield read_back(sigmas, remaining, lead, tree)

    root = (np.zeros((n, 1), dtype=np.int32), np.array([common * norm], dtype=np.int64), np.ones(1, dtype=bool))
    yield from descend(n - 1, 0, *root, [])
    return visited


def _search(lattice: LatticeSpec, norm: int, node_budget: int) -> tuple[np.ndarray, int]:
    """The chunks of _search_chunks in one (N, coeff_dim) int64 array, plus
    the node count."""
    chunks, found = _search_chunks(lattice, norm, node_budget), []
    while True:
        try:
            found.append(next(chunks))
        except StopIteration as done:
            return np.concatenate(found), done.value


def packed_keys(rows: np.ndarray, bounds: Sequence[int]) -> np.ndarray:
    """(N, W) int64 sort keys of (N, k) signed integer rows with
    |rows[:, c]| <= bounds[c].

    Column c is the digit rows[:, c] + bounds[c] of radix
    2 * bounds[c] + 1, the first column most significant, and a new word
    starts before a word's radix product would reach 2**63.  Each digit is
    formed in int64 from its column, so narrow rows are never copied
    whole.  Two rows are equal iff their keys are, and
    np.lexsort(keys.T[::-1]) is the stable lexicographic order of the
    rows, that of np.lexsort(rows.T[::-1])."""
    words: list[np.ndarray] = []
    size = 2**63  # so that the first column starts a word
    for column, bound in zip(rows.T, map(int, bounds)):
        radix = 2 * bound + 1
        if radix >= 2**63:
            raise ValueError(f"bound {bound} is past the int64 headroom of a sort key")
        digit = np.add(column, bound, dtype=np.int64)
        if size * radix >= 2**63:
            words.append(digit)
            size = radix
        else:
            words[-1] *= radix
            words[-1] += digit
            size *= radix
    return np.stack(words, axis=1)


def square_norms(rows: np.ndarray, ring: str) -> np.ndarray:
    """The square norm of every (N, 2k) int64 row of ring coordinates, the
    sum of x^2 + T*xy + y^2 over the (x, y) pairs it holds in turn, as E6
    ambient rows do; with T = 0 it is the sum of squares, whatever the
    order of the coordinates, so the split Gaussian rows take it too, and
    the cross term is taken only when T is not 0.  Exact in int64 while
    the caller's headroom check holds."""
    norms = np.einsum("ij,ij->i", rows, rows)
    t = RINGS[ring].T
    if t:
        cross = np.einsum("ij,ij->i", rows[:, 0::2], rows[:, 1::2])
        cross *= t
        norms += cross
    return norms


def _int64_bounds(lattice: LatticeSpec, norm: int) -> np.ndarray:
    """coordinate_bounds as an int64 array; HeadroomError unless a shell's
    arrays and its search fit in int64.

    A coefficient row within these bounds has every ambient coordinate,
    and every partial sum of the matmul, within reach.  A sum of squares
    adds at most reach^2 per coordinate and a^2 - ab + b^2 at most
    3 reach^2 per pair, so 2 reach^2 per coordinate bounds both.  The
    guard 2 * real_dim * reach^2 < 2**63 makes reach < 2**30, so every
    coefficient (each is at most reach: every generator row has a nonzero
    integer entry), generator entry and partial sum of the matmul is an
    integer below 2**53, exact in float64 (see _ambient_rows).  A unit
    image of a shell vector is a shell vector, so its coefficients and
    ambient coordinates lie within the same bounds, and ring_mul by a
    unit, whose coordinates are 0 or +-1, adds at most three of them: below
    2**32, on the coefficient pairs (unit_images) as on the ambient ring
    coordinates (states.representatives).

    In the search, every remaining budget and every w * t^2 is at most
    common * norm, with common the lcm of the denominators of the LDL
    weights of the pair-ordered form (_integer_form: 4 for E8, 24 for
    BW16, 8 for E6); below 2**52 every quotient of it is an exact float64,
    so _isqrt is exact.  Every node lies within the bounds (a prefix of a
    point of the ellipsoid; the sector rule only removes nodes), so |sigma|
    at level j is at most the sum of |c| * bound over lam[j], and lo, hi
    and t stay within s + |sigma|: the sector rule only raises lo to 0 and
    lowers hi to _pair_cap, which is at most a coefficient of the level
    above, or leaves it.

    The search holds its frontier's sigmas, lam_mat and its tree's
    (parent, x) in int32.  Every x lies within its coefficient bound, and
    every c * x, every sigma and every partial sum of the sigma update
    (sigmas + lam_mat * x) is a partial sum of |c| * bound over one lam[j],
    so at most the sigma bound above; a parent is an index into a level of
    at most CHUNK_NODES nodes.  So a sigma bound and coefficient bounds
    below 2**31 keep every int32 exact, and t, remaining, lo and hi are
    int64.  At the largest norm the guards above pass, the sigma bound is
    below 2**29 on E8, BW16 and E6, so this guard only states the layout's
    premise."""
    bounds = coordinate_bounds(lattice, norm)
    reach = max(
        sum(b * abs(row[k]) for b, row in zip(bounds, lattice.scaled_generator))
        for k in range(lattice.real_dim)
    )
    if 2 * lattice.real_dim * reach * reach >= 2**63:
        raise HeadroomError(f"{lattice.name} norm {norm} is past the int64 headroom of the shell arrays")
    order, lam, _, _, common = _form_for(lattice)
    sigma = max(sum(abs(c) * bounds[order[i]] for i, c in pairs) for pairs in lam)
    if common * norm >= 2**52:
        raise HeadroomError(f"{lattice.name} norm {norm} is past the int64 headroom of the shell search")
    if sigma >= 2**31 or max(bounds) >= 2**31:
        raise HeadroomError(f"{lattice.name} norm {norm} is past the int32 headroom of the search frontier")
    return np.array(bounds, dtype=np.int64)


def _float_generator(lattice: LatticeSpec) -> np.ndarray:
    """The scaled generator in float64, the right operand of _ambient_rows."""
    return np.array(lattice.scaled_generator, dtype=np.float64)


def _ambient_rows(coeffs: np.ndarray, generator: np.ndarray) -> np.ndarray:
    """coeffs @ generator in int64, for int64 coefficient rows within
    _int64_bounds and the _float_generator of their lattice.

    Every operand and every partial sum of the product is then an integer
    below 2**30 (see _int64_bounds), so the product runs in float64, which
    numpy hands to BLAS (int64 has no BLAS path): below 2**53 any
    summation order, with or without FMA, gives the exact sum.  It runs in
    blocks of MATMUL_ROWS rows, each converted back to int64 at once, so
    the float copy stays small, and each product is small enough that
    OpenBLAS runs it on one thread (unblocked, its worker threads woke and
    nearly doubled the CPU time of an unpinned census)."""
    rows = np.empty((len(coeffs), generator.shape[1]), dtype=np.int64)
    for start in range(0, len(coeffs), MATMUL_ROWS):
        block = slice(start, start + MATMUL_ROWS)
        rows[block] = coeffs[block].astype(np.float64) @ generator
    return rows


def _shell_from_coeffs(
    lattice: LatticeSpec, norm: int, coeffs: np.ndarray, bounds: np.ndarray, generator: np.ndarray, per_orbit: bool = False
) -> Shell:
    """The Shell of (N, coeff_dim) int64 coefficient rows with their
    ambient rows; bounds is _int64_bounds(lattice, norm) and generator
    _float_generator(lattice), which the caller computes once per shell.

    Without per_orbit the rows are the vectors themselves, sorted.  With
    it they are vectors of the search, unsorted (see Shell), each of which
    must have its first nonzero coefficient pair, in search order, in the
    canonical sector (_search_leads), so that no two share a unit orbit.
    Raises ValueError when a row has the wrong norm or, with per_orbit, is
    not the search's vector of its orbit.  Every coefficient is bounded
    before the float64 matmul (_ambient_rows), so no sum in it can round;
    the norm check stays in int64 (square_norms), as a norm may pass
    2**53."""
    outside = ((coeffs < -bounds) | (coeffs > bounds)).any(axis=1)
    if outside.any():
        row = coeffs[np.argmax(outside)].tolist()
        raise ValueError(f"row {row} has wrong norm (a coefficient is past its bound {bounds.tolist()})")
    if per_orbit:
        astray = ~in_sector(*_search_leads(lattice, coeffs), lattice.ring)
        if astray.any():
            raise ValueError(f"row {coeffs[np.argmax(astray)].tolist()} is not the search's vector of its unit orbit")
    else:
        coeffs = coeffs[np.lexsort(packed_keys(coeffs, bounds).T[::-1])]
    rows = _ambient_rows(coeffs, generator)
    wrong = square_norms(rows, lattice.ring) != norm * lattice.scale**2
    if wrong.any():
        raise ValueError(f"row {coeffs[np.argmax(wrong)].tolist()} has wrong norm")
    return Shell(lattice, norm, coeffs, rows, len(UNIT_COORDS[lattice.ring]) if per_orbit else 1)


def enumerate_shell(
    lattice: LatticeSpec, norm: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> Shell:
    """Enumerate every lattice vector of the given square norm.

    The search is exhaustive: the LDL-based bound test is carried out in
    integer arithmetic after clearing denominators, so pruning is exact.
    It finds one vector per unit orbit, and the shell is their unit
    images, sorted lexicographically by coefficients.  Raises
    EnumerationBudgetExceeded if more than node_budget branch nodes are
    visited, HeadroomError if the shell's arrays or its search could
    overflow int64 (checked before the search) and, on a bug, ValueError
    if a vector fails the norm check.
    """
    bounds = _int64_bounds(lattice, norm)  # raises before a search past the headroom
    # no reference kept here, so the unsorted arrays are freed once sorted
    return _shell_from_coeffs(
        lattice, norm, unit_images(lattice, _search(lattice, norm, node_budget)[0]), bounds, _float_generator(lattice)
    )


# ---------------------------------------------------------------------------
# shell cache


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "magiclattice"


def shell_cache_path(cache_dir: Optional[Path], lattice: LatticeSpec, norm: int) -> Path:
    """The cache file of a shell, in cache_dir or else default_cache_dir().
    It holds coefficients over the ring bases (E8_BASIS, BW16_BASIS,
    E6_GENERATOR); files over earlier bases (real, or a typed BW16 table)
    have other names and are ignored."""
    cache = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return cache / f"{lattice.name}_norm{norm}_ring2.npy"


def save_shell(shell: Shell, path: Path) -> None:
    """Write a shell's (N, coeff_dim) int64 coefficient array to its cache
    file in .npy format.

    The array is written to a temporary file in the same directory, which
    then replaces path, so a failed write never leaves a partial file under
    the cache name.  Raises ShellCacheError when the directory or the file
    cannot be written."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            with tmp.open("wb") as fh:
                np.save(fh, shell.coeffs, allow_pickle=False)
            os.replace(tmp, path)
        except BaseException:
            tmp.unlink(missing_ok=True)
            raise
    except OSError as exc:
        raise ShellCacheError(f"cannot write shell cache {path}: {exc}") from exc


def load_shell(lattice: LatticeSpec, norm: int, path: Path) -> Shell:
    """Load a cached shell and check that it is that shell.

    The file must hold an (N, coeff_dim) int64 array in .npy format.  Its
    rows then take the checks of an enumerated shell (int64 headroom,
    coefficient bound, norm), and must be distinct and number
    shell_size(lattice, norm): as every integer coefficient row is a
    lattice point, they are then the whole shell.  Raises ShellCacheError
    at the first failure.
    """
    path = Path(path)
    try:
        # numpy warns on some malformed headers before it fails on them
        with path.open("rb") as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            coeffs = np.lib.format.read_array(fh, allow_pickle=False)
    # numpy's header parser raises any of these on a malformed header, and
    # MemoryError when the header declares more elements than memory holds
    except (OSError, ValueError, TypeError, SyntaxError, TokenError, MemoryError) as exc:
        reason = str(exc).partition("\n")[0]
        raise ShellCacheError(f"cannot read shell cache {path}: {reason}") from exc
    if coeffs.dtype != np.int64 or coeffs.shape[1:] != (lattice.coeff_dim,):
        raise ShellCacheError(
            f"{path}: holds a {coeffs.dtype} array of shape {coeffs.shape}, "
            f"expected (N, {lattice.coeff_dim}) int64"
        )
    try:
        shell = _shell_from_coeffs(lattice, norm, coeffs, _int64_bounds(lattice, norm), _float_generator(lattice))
    except ValueError as exc:
        raise ShellCacheError(f"{path}: {exc}") from exc
    if (shell.coeffs[1:] == shell.coeffs[:-1]).all(axis=1).any():
        raise ShellCacheError(f"{path}: duplicate rows")
    expected = shell_size(lattice, norm)
    if shell.count != expected:
        raise ShellCacheError(f"{path}: {shell.count} rows, but the shell has {expected} vectors")
    return shell


def stream_shell(lattice: LatticeSpec, norm: int, node_budget: int = DEFAULT_NODE_BUDGET) -> Iterator[Shell]:
    """The shell as chunks of the vectors the search finds, one per unit
    orbit: Shells whose rows stand for every vector once between them (see
    Shell.multiplicity).

    Each chunk of the search, unsorted, takes the checks of an enumerated
    shell (bound, matmul, norm) and that of one vector per orbit
    (_shell_from_coeffs) and is yielded, so the shell is never held whole.
    The stream reads and writes no cache file, and holds no chunk while
    it searches the next."""
    bounds = _int64_bounds(lattice, norm)  # raises before a search past the headroom
    checked = partial(_shell_from_coeffs, lattice, norm, bounds=bounds, generator=_float_generator(lattice), per_orbit=True)
    yield from map(checked, _search_chunks(lattice, norm, node_budget))


def ensure_shell(
    lattice: LatticeSpec,
    norm: int,
    cache_dir: Optional[Path] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Shell:
    """Load the shell from cache, or enumerate it and populate the cache."""
    path = shell_cache_path(cache_dir, lattice, norm)
    if path.exists():
        return load_shell(lattice, norm, path)
    shell = enumerate_shell(lattice, norm, node_budget=node_budget)
    save_shell(shell, path)
    return shell
