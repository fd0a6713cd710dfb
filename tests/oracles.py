"""Slow reference implementations that the production kernels are checked
against."""

from math import isqrt

import numpy as np

from magiclattice.exact import EisensteinInt, canonical_vector
from magiclattice.lattices import EnumerationBudgetExceeded, LatticeSpec, Shell, _form_for
from magiclattice.states import real_to_complex


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
