"""Lattice data and exact shell enumeration for E8, BW16 and E6.

A shell is the full set of lattice vectors of a given square norm.  The
enumerator runs a depth-first branch-and-bound over the coefficient
lattice using an exact LDL^T decomposition of the Gram matrix; after
clearing denominators every bound test is integer arithmetic, so no
solution can be lost to rounding.  A brute-force box scan over the
coordinate bounds is provided as an independent cross-check.

E8 and BW16 live in R^8 and R^16 with half-integer coordinates; their
ambient vectors are stored doubled (scale 2) so that every coordinate is
an integer.  E6 lives in C^3 over the Eisenstein integers and is
enumerated through its rational 6-dimensional real form.
"""

from __future__ import annotations

import os
import warnings
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import gcd, isqrt
from pathlib import Path
from typing import IO, Iterable, Optional, Sequence

import numpy as np

from .exact import EisensteinInt, THETA

DEFAULT_NODE_BUDGET = 10**10
CACHE_ENV_VAR = "MAGICLATTICE_CACHE"
_CACHE_MAGIC = "#magiclattice-shell v1"
_SAVE_BLOCK = 1 << 15  # rows formatted per write


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


# ---------------------------------------------------------------------------
# generator matrices


def _e8_generator() -> list[list[Fraction]]:
    rows = [[Fraction(0)] * 8 for _ in range(8)]
    for k in range(6):
        rows[k][k] = Fraction(1)
        rows[k][k + 1] = Fraction(-1)
    rows[6] = [Fraction(-1, 2)] * 6 + [Fraction(1, 2), Fraction(1, 2)]
    rows[7][5] = Fraction(1)
    rows[7][6] = Fraction(1)
    return rows


_BW16_DOUBLED = (
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


def _bw16_generator() -> list[list[Fraction]]:
    return [[Fraction(x, 2) for x in row] for row in _BW16_DOUBLED]


# E6 complex generator over Z[omega]; rows are basis vectors of the lattice.
E6_GENERATOR: tuple[tuple[EisensteinInt, ...], ...] = (
    (THETA, EisensteinInt(0), EisensteinInt(0)),
    (EisensteinInt(0), THETA, EisensteinInt(0)),
    (EisensteinInt(1), EisensteinInt(1), EisensteinInt(1)),
)


# ---------------------------------------------------------------------------
# small exact matrix helpers


def _mat_mul_t(m: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    return [[sum(m[i][k] * m[j][k] for k in range(len(m[i]))) for j in range(n)] for i in range(n)]


def _mat_inverse(m: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
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
    known_counts: dict[int, int]
    gram: tuple[tuple[Fraction, ...], ...]  # coefficient-space Gram matrix
    gram_inv_diag: tuple[Fraction, ...]
    scaled_generator: tuple[tuple[int, ...], ...]  # scale*M; ambient row = coeffs @ this
    scaled_generator_inv: tuple[tuple[Fraction, ...], ...]

    def __repr__(self) -> str:  # pragma: no cover
        return f"LatticeSpec({self.name})"


def _e6_real_generator() -> list[list[Fraction]]:
    # Real form of E6_GENERATOR: row i holds the (a, b) pairs of the three
    # ambient coordinates a + omega*b of the i-th unit coefficient vector
    # (a1, a2, a3, b1, b2, b3), beta_k = a_k + omega*b_k.
    rows = []
    for i in range(6):
        beta = [EisensteinInt(int(i == k), int(i == 3 + k)) for k in range(3)]
        row = []
        for col in range(3):
            amb = sum((beta[r] * E6_GENERATOR[r][col] for r in range(3)), EisensteinInt(0))
            row.extend(Fraction(x) for x in amb.coords())
        rows.append(row)
    return rows


def _eisenstein_gram(gen: Sequence[Sequence[Fraction]]) -> list[list[Fraction]]:
    """Gram matrix of the rows under sum_k |a_k + omega*b_k|^2, the form
    a^2 - ab + b^2 on each (a, b) pair.  Entries come out in (1/2)Z."""

    def dot(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
        return sum(
            x[k] * y[k] + x[k + 1] * y[k + 1] - (x[k] * y[k + 1] + x[k + 1] * y[k]) / 2
            for k in range(0, len(x), 2)
        )

    return [[dot(x, y) for y in gen] for x in gen]


_LATTICE_CACHE: dict[str, LatticeSpec] = {}


def build_lattice(name: str) -> LatticeSpec:
    """Construct the exact lattice data for "E8", "BW16" or "E6"."""
    key = name.upper()
    if key in _LATTICE_CACHE:
        return _LATTICE_CACHE[key]

    if key == "E8":
        gen = _e8_generator()
        gram = _mat_mul_t(gen)
        scale = 2
        counts = {2: 240, 4: 2160, 6: 6720, 8: 17520}
        ring, cdim, rdim = "gaussian", 4, 8
    elif key == "BW16":
        gen = _bw16_generator()
        gram = _mat_mul_t(gen)
        scale = 2
        counts = {4: 4320, 6: 61440, 8: 522720, 10: 2211840}
        ring, cdim, rdim = "gaussian", 8, 16
    elif key == "E6":
        gen = _e6_real_generator()
        gram = _eisenstein_gram(gen)
        scale = 1
        counts = {3: 72, 6: 270, 9: 720, 12: 936, 15: 2160}
        ring, cdim, rdim = "eisenstein", 3, 6
    else:
        raise ValueError(f"unknown lattice {name!r}; expected E8, BW16 or E6")

    inv = _mat_inverse(gram)
    diag = tuple(inv[i][i] for i in range(len(inv)))
    if any((x * scale).denominator != 1 for row in gen for x in row):
        raise ValueError(f"scale {scale} does not make the {key} generator integral")
    scaled = tuple(tuple(int(x * scale) for x in row) for row in gen)
    scaled_inv = tuple(tuple(r) for r in _mat_inverse([[Fraction(x) for x in row] for row in scaled]))

    spec = LatticeSpec(
        name=key,
        ring=ring,
        complex_dim=cdim,
        real_dim=rdim,
        coeff_dim=len(gram),
        scale=scale,
        known_counts=counts,
        gram=tuple(tuple(row) for row in gram),
        gram_inv_diag=diag,
        scaled_generator=scaled,
        scaled_generator_inv=scaled_inv,
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
    """The vectors of one shell, as int64 arrays sorted by coefficients.

    coeffs[k] holds the lattice coefficients of vector k and rows[k] its
    ambient row: for E8/BW16 the 8/16 real coordinates times the lattice
    scale, for E6 the (a, b) integer pairs of the three Eisenstein
    coordinates a + b*omega, flattened to 6 integers.
    """

    lattice: LatticeSpec
    norm: int
    coeffs: np.ndarray  # (N, coeff_dim) int64
    rows: np.ndarray  # (N, real_dim) int64

    @property
    def count(self) -> int:
        return len(self.coeffs)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Shell({self.lattice.name}, norm={self.norm}, count={self.count})"


@dataclass(frozen=True)
class ThetaCheckResult:
    ok: bool
    checked: bool
    expected: Optional[int]
    actual: int


def theta_check(shell: Shell) -> ThetaCheckResult:
    """Compare the shell size against the tabulated vector count.

    Unknown norms are reported as unchecked rather than failed.
    """
    expected = shell.lattice.known_counts.get(shell.norm)
    if expected is None:
        return ThetaCheckResult(ok=True, checked=False, expected=None, actual=shell.count)
    return ThetaCheckResult(
        ok=(shell.count == expected), checked=True, expected=expected, actual=shell.count
    )


# ---------------------------------------------------------------------------
# branch-and-bound enumeration


def _integer_form(lattice: LatticeSpec) -> tuple[tuple[int, ...], list, list[int], list[int], int]:
    """Integerized LDL data in a pruned-friendly coordinate order.

    Returns (order, lam, mus, weights, lam_common) where order[pos] is the
    original coefficient index at DFS position pos (position 0 is solved
    innermost), and for each position j:

        lam[j]     list of (pos, coef) pairs with pos > j
        mus[j]     positive integer
        weights[j] positive integer

    such that common * Q(a) == sum_j weights[j] * t_j^2 with
    t_j = mus[j]*x_j + sum_{(i,c) in lam[j]} c*x_i over DFS coordinates x.
    """
    n = lattice.coeff_dim
    # Decide coordinates with small bounds at the outermost (last) levels.
    order = sorted(range(n), key=lambda i: (-lattice.gram_inv_diag[i], i))
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


def _dfs_enumerate(lattice: LatticeSpec, norm: int, node_budget: int) -> tuple[np.ndarray, int]:
    """All coefficient vectors of the given norm, (N, coeff_dim) int64 in
    search order, plus the node count.  The caller checks that the
    coefficients fit in int64."""
    order, lam, mus, weights, common = _form_for(lattice)
    n = lattice.coeff_dim
    target = common * norm
    xs = [0] * n
    found = array("q")  # flat, in DFS coordinate order
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
                found.extend(xs)
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

    descend(n - 1, target, True)
    # Each vector found has its leading DFS coordinate positive; the shell
    # is symmetric under negation.  Column order[pos] of the result holds
    # DFS position pos.
    half = len(found) // n
    coeffs = np.empty((2 * half, n), dtype=np.int64)
    coeffs[:half, order] = np.frombuffer(found, dtype=np.int64).reshape(half, n)
    del found
    np.negative(coeffs[:half], out=coeffs[half:])
    return coeffs, visited


def _scaled_norms(lattice: LatticeSpec, rows: np.ndarray) -> np.ndarray:
    """Square norm of every ambient row times scale**2 (exact integers
    while the caller's headroom check holds)."""
    if lattice.ring == "gaussian":
        return np.einsum("ij,ij->i", rows, rows)
    a, b = rows[:, 0::2], rows[:, 1::2]
    return np.einsum("ij,ij->i", a, a - b) + np.einsum("ij,ij->i", b, b)


def enumerate_shell(
    lattice: LatticeSpec, norm: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> Shell:
    """Enumerate every lattice vector of the given square norm.

    The search is exhaustive: the LDL-based bound test is carried out in
    integer arithmetic after clearing denominators, so pruning is exact.
    Vectors are returned sorted lexicographically by coefficients.  Raises
    EnumerationBudgetExceeded if more than node_budget branch nodes are
    visited, and ValueError if the shell's arrays could overflow int64.
    """
    # Every coefficient is within coordinate_bounds, so every ambient
    # coordinate, and every partial sum of the matmul, is within reach.
    # A sum of squares adds at most reach^2 per coordinate and a^2 - ab + b^2
    # at most 3 reach^2 per pair, so 2 reach^2 per coordinate bounds both.
    bounds = coordinate_bounds(lattice, norm)
    reach = max(
        sum(b * abs(row[k]) for b, row in zip(bounds, lattice.scaled_generator))
        for k in range(lattice.real_dim)
    )
    if 2 * lattice.real_dim * reach * reach >= 2**63:
        raise ValueError(f"{lattice.name} norm {norm} is past the int64 headroom of the shell arrays")
    coeffs, _ = _dfs_enumerate(lattice, norm, node_budget)
    coeffs = coeffs[np.lexsort(coeffs.T[::-1])]
    rows = coeffs @ np.array(lattice.scaled_generator, dtype=np.int64)
    if not (_scaled_norms(lattice, rows) == norm * lattice.scale**2).all():
        raise AssertionError(f"an enumerated {lattice.name} l={norm} vector fails the norm check")
    return Shell(lattice=lattice, norm=norm, coeffs=coeffs, rows=rows)


# ---------------------------------------------------------------------------
# independent brute-force oracle


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


# ---------------------------------------------------------------------------
# E6 coefficient recovery


def solve_eisenstein_coefficients(
    components: Sequence[EisensteinInt],
) -> Optional[tuple[EisensteinInt, EisensteinInt, EisensteinInt]]:
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


# ---------------------------------------------------------------------------
# shell cache


def default_cache_dir() -> Path:
    env = os.environ.get(CACHE_ENV_VAR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "magiclattice"


def shell_cache_path(cache_dir: Path, lattice: LatticeSpec, norm: int) -> Path:
    return Path(cache_dir) / f"{lattice.name}_norm{norm}.shell"


def save_shell(shell: Shell, path: Path) -> None:
    """Write a shell to its cache file (header plus sorted ambient rows).

    The text goes to a temporary file in the same directory that then
    replaces the cache file, so a failed write never leaves a partial
    file under the cache name."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    order = np.lexsort(shell.rows.T[::-1])
    line = "\n" + " ".join(["%d"] * shell.lattice.real_dim)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w") as fh:
            fh.write(
                f"{_CACHE_MAGIC} lattice={shell.lattice.name} norm={shell.norm} "
                f"scale={shell.lattice.scale} count={shell.count}"
            )
            for start in range(0, shell.count, _SAVE_BLOCK):  # the text, a block at a time
                block = shell.rows[order[start : start + _SAVE_BLOCK]].tolist()
                fh.write("".join(line % tuple(row) for row in block))
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_shell(lattice: LatticeSpec, norm: int, path: Path) -> Shell:
    """Load a cached shell and check that it is that shell.

    Checked: the header (lattice, norm, scale and row count), and the
    rows' width, coordinate bound, norm and lattice membership, that the
    rows are distinct and that they are closed under negation.  Raises
    ShellCacheError at the first failure.
    """
    path = Path(path)
    try:
        with path.open() as fh:
            declared = _check_header(lattice, norm, path, fh.readline())
            rows = _parse_rows(path, fh, lattice.real_dim)
    except (OSError, UnicodeDecodeError) as exc:
        raise ShellCacheError(f"cannot read shell cache {path}: {exc}") from exc
    if len(rows) != declared:
        raise ShellCacheError(
            f"{path}: header declares {declared} vectors, file has {len(rows)}"
        )
    coeffs = _validate_rows(lattice, path, rows, norm * lattice.scale * lattice.scale)
    order = np.lexsort(coeffs.T[::-1])
    coeffs = coeffs[order]
    rows = rows[order]
    _check_distinct_and_symmetric(path, coeffs)
    return Shell(lattice=lattice, norm=norm, coeffs=coeffs, rows=rows)


def _check_header(lattice: LatticeSpec, norm: int, path: Path, first: str) -> int:
    """The row count a cache header declares, once its lattice, norm and
    scale are checked."""
    if not first:
        raise ShellCacheError(f"{path}: empty cache file")
    first = first.rstrip("\n")
    header = first.split()
    magic = " ".join(header[:2])
    if magic != _CACHE_MAGIC:
        raise ShellCacheError(f"{path}: bad header {first!r}")
    try:
        fields = dict(part.split("=", 1) for part in header[2:])
        header_norm, scale, declared = (int(fields.get(k, -1)) for k in ("norm", "scale", "count"))
    except ValueError as exc:
        raise ShellCacheError(f"{path}: bad header {first!r}") from exc
    if fields.get("lattice") != lattice.name or header_norm != norm:
        raise ShellCacheError(
            f"{path}: header is for {fields.get('lattice')} norm {fields.get('norm')}, "
            f"requested {lattice.name} norm {norm}"
        )
    if scale != lattice.scale:
        raise ShellCacheError(f"{path}: scale mismatch")
    return declared


def _parse_rows(path: Path, fh: IO[str], width: int) -> np.ndarray:
    """The (N, width) int64 rows of the rest of a cache file, read by
    numpy's C parser; blank lines are skipped."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # no rows: an empty shell
            rows = np.loadtxt(fh, dtype=np.int64, comments=None, ndmin=2)
    except ValueError as exc:
        reason = str(exc).partition("\n")[0]
        raise ShellCacheError(f"{path}: malformed row ({reason})") from exc
    if not len(rows):
        return np.empty((0, width), dtype=np.int64)
    # loadtxt takes the column count from the first row
    if rows.shape[1] != width:
        raise ShellCacheError(f"{path}: rows have {rows.shape[1]} columns, expected {width}")
    return rows


def _row_text(row: np.ndarray) -> str:
    return " ".join(str(x) for x in row.tolist())


def _validate_rows(
    lattice: LatticeSpec, path: Path, rows: np.ndarray, scaled_norm: int
) -> np.ndarray:
    """The coefficients of ambient rows, every row checked for coordinate
    bound, norm and lattice membership.

    Coordinates are bounded before anything is squared: |x| <= sqrt(N)
    for a sum of squares, and |a|, |b| <= sqrt(4N/3) for Eisenstein pairs
    (a^2 - ab + b^2 >= 3a^2/4).  That bounds every int64 intermediate."""
    width = lattice.real_dim
    inv = lattice.scaled_generator_inv
    denom = _lcm(x.denominator for inv_row in inv for x in inv_row)
    inv_num = [[int(x * denom) for x in inv_row] for inv_row in inv]
    gaussian = lattice.ring == "gaussian"
    limit = isqrt(scaled_norm if gaussian else 4 * scaled_norm // 3)
    inv_max = max(abs(x) for inv_row in inv_num for x in inv_row)
    if width * limit * max(2 * limit, inv_max) >= 2**63:
        raise ShellCacheError(f"{path}: norm {scaled_norm} is past the int64 check's headroom")
    outside = ((rows < -limit) | (rows > limit)).any(axis=1)
    if outside.any():
        bad = int(np.argmax(outside))
        raise ShellCacheError(
            f"{path}: row {_row_text(rows[bad])!r} has wrong norm (a coordinate is past {limit})"
        )
    norms = _scaled_norms(lattice, rows)
    if not (norms == scaled_norm).all():
        bad = int(np.argmin(norms == scaled_norm))
        raise ShellCacheError(f"{path}: row {_row_text(rows[bad])!r} has wrong norm")

    coeffs = rows @ np.array(inv_num, dtype=np.int64)
    off_lattice = (coeffs % denom).any(axis=1)
    if off_lattice.any():
        bad = int(np.argmax(off_lattice))
        raise ShellCacheError(
            f"{path}: row {_row_text(rows[bad])!r} is not a {lattice.name} lattice point"
        )
    coeffs //= denom
    return coeffs


def _check_distinct_and_symmetric(path: Path, ordered: np.ndarray) -> None:
    """Raise ShellCacheError unless the lexicographically sorted
    coefficient rows are distinct and closed under negation."""
    if (ordered[1:] == ordered[:-1]).all(axis=1).any():
        raise ShellCacheError(f"{path}: duplicate rows")
    # negation reverses lexicographic order, so distinct rows are closed
    # under negation iff the negated, reversed list is the list itself
    if not np.array_equal(-ordered[::-1], ordered):
        raise ShellCacheError(f"{path}: rows are not closed under negation")


def ensure_shell(
    lattice: LatticeSpec,
    norm: int,
    cache_dir: Optional[Path] = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> Shell:
    """Load the shell from cache, or enumerate it and populate the cache."""
    cache = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    path = shell_cache_path(cache, lattice, norm)
    if path.exists():
        return load_shell(lattice, norm, path)
    shell = enumerate_shell(lattice, norm, node_budget=node_budget)
    save_shell(shell, path)
    return shell
