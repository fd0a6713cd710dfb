"""Mapping lattice vectors to pure quantum states.

A real vector of length 2D pairs up into D complex amplitudes
(c_k = x_k + i*x_{D+k}); the resulting ring vector, reduced to primitive
unit-canonical form, is the exact representation of a pure state.  The
normalization 1/sqrt(N) is never materialized: states carry the integer
norm_sq N instead, which keeps every squared expectation value rational.

Basis conventions (frozen): a qubit register |b1 b2 .. bn> is component
1 + sum b_j 2^(n-j) (big-endian); the qutrit basis |1>,|2>,|3> occupies
components 1..3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterator, Sequence, Union

import numpy as np

from .exact import (
    EisensteinInt,
    GaussianInt,
    canonical_vector,
    vector_norm,
)
from .lattices import (
    UNIT_COORDS,
    HeadroomError,
    Shell,
    first_nonzero,
    in_sector,
    packed_keys,
    ring_coords,
    ring_mul,
    sector_mask,
    square_norms,
)

RingVector = Union[Sequence[GaussianInt], Sequence[EisensteinInt]]
# Vectors per block of representatives, whose temporaries then stay in cache
SECTOR_ROWS = 2**12


class EmptyShellError(ValueError):
    """Raised when a shell with no vectors is turned into states."""


@dataclass(frozen=True)
class PureStateExact:
    """Unnormalized pure state with exact ring-integer components.

    components are primitive (integer content 1) and unit-canonical; the
    physical state is components / sqrt(norm_sq).
    """

    ring: str  # "gaussian" or "eisenstein"
    components: tuple
    norm_sq: int

    @property
    def dim(self) -> int:
        return len(self.components)

    def __repr__(self) -> str:  # pragma: no cover
        comps = ", ".join(str(c) for c in self.components)
        return f"PureStateExact([{comps}], N={self.norm_sq})"


def vector_to_state(v: RingVector) -> PureStateExact:
    """Map a nonzero ring vector to its canonical PureStateExact:
    primitive_part, then unit_canonicalize, with norm_sq recomputed from
    the reduced components."""
    comps, _content, _unit = canonical_vector(v)
    ring = "gaussian" if isinstance(comps[0], GaussianInt) else "eisenstein"
    return PureStateExact(
        ring=ring,
        components=comps,
        norm_sq=vector_norm(comps),
    )


@dataclass(frozen=True, eq=False)
class StateSet:
    """Distinct canonical states of shell vectors, as arrays.

    components[s, k] holds the (re, im) or (a, b) coordinates of component
    k of state s, primitive and unit-canonical: the one vector of the
    state's unit orbit whose first nonzero component lies in the canonical
    sector, divided by its integer content.  The states of a shell (dedup)
    are in lexicographic order of those coordinates, those of a chunk
    (representatives) in chunk order.  PureStateExact objects are built
    only when asked for: one by index, or all of them through ``states``;
    a slice is the StateSet of those rows.  The exact Xi_2 of the states
    is computed once, on first use of ``xi2_classes`` (or of ``xi2``, its
    per-state view).
    """

    lattice_name: str
    norm: int
    ring: str
    components: np.ndarray  # (S, dim, 2) int64
    norm_sq: np.ndarray  # (S,) int64

    @property
    def count(self) -> int:
        return len(self.components)

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: Union[int, slice]) -> Union[PureStateExact, "StateSet"]:
        if isinstance(index, slice):
            return StateSet(self.lattice_name, self.norm, self.ring, self.components[index], self.norm_sq[index])
        cls = GaussianInt if self.ring == "gaussian" else EisensteinInt
        comps = tuple(cls(x, y) for x, y in self.components[index].tolist())
        return PureStateExact(self.ring, comps, int(self.norm_sq[index]))

    def __iter__(self) -> Iterator[PureStateExact]:
        return iter(self.states)

    @cached_property
    def states(self) -> tuple[PureStateExact, ...]:
        return tuple(self[i] for i in range(self.count))

    @cached_property
    def xi2_classes(self) -> tuple[tuple[Fraction, ...], np.ndarray]:
        """Exact Xi_2 of the states as classes, from the batched kernel
        (magic.xi_classes): the distinct values, and for each state the
        index of its value among them."""
        from .magic import xi_classes  # magic imports this module

        return xi_classes(self, (2,))[2]

    @property
    def xi2(self) -> tuple[Fraction, ...]:
        """Exact Xi_2 of every state, in state order."""
        values, index = self.xi2_classes
        return tuple(map(values.__getitem__, index.tolist()))

    def state_id(self, index: int) -> str:
        return f"{self.lattice_name}-l{self.norm}-{index:05d}"

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"StateSet({self.lattice_name}, norm={self.norm}, "
            f"states={self.count})"
        )


def _primitive(coords: np.ndarray) -> np.ndarray:
    """Each row of an (N, dim, 2) int64 array that no one else reads
    divided by its integer content, in place; returns the array."""
    coords //= np.gcd.reduce(coords, axis=(1, 2))[:, None, None]
    return coords


def ray_keys(coords: np.ndarray, ring: str) -> np.ndarray:
    """Exact ray keys (N, dim, 2) of N nonzero ring vectors given as
    (N, dim, 2) int64 coordinates: each vector c times conj(c_f), c_f its
    first nonzero component, divided by the integer content of that
    product.

    For a nonzero lambda in Q(i) or Q(omega), lambda*c gives the product
    times |lambda|^2 > 0, which the division removes, since the product's
    first nonzero component |c_f|^2 is positive; and equal keys make
    c*conj(c_f) a positive rational multiple of d*conj(d_f), so c a
    multiple of d.  Two vectors have one key iff they span one ray, and no
    ring gcd is taken.

    Exact in int64 while every coordinate is below 2**30 in absolute
    value: those of conj(c_f) are then below 2**31, and a key coordinate,
    a sum of at most three products of a coordinate and one of conj(c_f),
    is below 2**60 + 2**61 + 2**60 = 2**62.  HeadroomError past that."""
    if len(coords) and np.abs(coords).max() >= 2**30:
        raise HeadroomError("ring coordinates past the int64 headroom of a ray key")
    p, q = first_nonzero(coords)
    a, b = coords[..., 0], coords[..., 1]
    if ring == "gaussian":  # (a + bi)(p - qi)
        x, y = a * p[:, None] + b * q[:, None], b * p[:, None] - a * q[:, None]
    else:  # (a + b w)(c + d w) with c + d w = conj(p + q w) = (p - q) - q w
        c, d = (p - q)[:, None], -q[:, None]
        bd = b * d
        x, y = a * c - bd, a * d + b * c - bd
    return _primitive(np.stack((x, y), axis=-1))


def representatives(chunk: Shell) -> StateSet:
    """The states of a chunk of stream_shell, one vector per unit orbit,
    one state per row, in chunk order: each row is multiplied by the unit
    that takes its first nonzero component into the canonical sector, a
    fundamental domain of the units on the nonzero ring elements, and
    divided by its integer content.

    Two vectors of one shell with one canonical state differ by a unit:
    their integer contents are equal because their norms are.  So over
    the chunks of a shell, which hold one vector of each unit orbit, every
    state has exactly one row, and the rows times |units| are the shell's
    vectors."""
    ring, coords = chunk.lattice.ring, ring_coords(chunk)
    units = UNIT_COORDS[ring]
    comps = np.empty(coords.shape, np.int64)
    norms = np.empty(len(coords), np.int64)
    for start in range(0, len(comps), SECTOR_ROWS):
        rows = slice(start, start + SECTOR_ROWS)
        p, q = first_nonzero(coords[rows])
        x, y = ring_mul(p[:, None], q[:, None], units[:, 0], units[:, 1], ring)  # under every unit
        c, d = units[in_sector(x, y, ring).argmax(axis=1)].T[:, :, None]
        block = comps[rows]
        ring_mul(coords[rows, :, 0], coords[rows, :, 1], c, d, ring, out=(block[..., 0], block[..., 1]))
        _primitive(block)
        norms[rows] = square_norms(block.reshape(len(block), -1), ring)
    return StateSet(chunk.lattice.name, chunk.norm, ring, comps, norms)


def dedup(shell: Shell) -> StateSet:
    """The states of a whole shell: its vectors in sector_mask, the one
    member of each unit orbit whose first nonzero component lies in the
    canonical sector, divided by their integer content, in lexicographic
    order of their components.

    On a unit-closed shell each state absorbs exactly |units| vectors (4
    Gaussian, 6 Eisenstein); that count is checked at runtime rather than
    assumed.
    """
    if shell.count == 0:
        raise EmptyShellError(f"{shell.lattice.name} l={shell.norm} has no vectors, so no states")
    ring, units = shell.lattice.ring, len(UNIT_COORDS[shell.lattice.ring])
    comps = _primitive(np.ascontiguousarray(ring_coords(shell)[sector_mask(shell)]))
    if len(comps) * units != shell.count:
        raise AssertionError(
            f"{shell.lattice.name} l={shell.norm}: {len(comps)} states x {units} units "
            f"!= {shell.count} vectors, so the shell is not closed under the units"
        )
    flat = comps.reshape(len(comps), -1)
    order = np.lexsort(packed_keys(flat, np.maximum(flat.max(axis=0), -flat.min(axis=0))).T[::-1])
    comps = comps[order]
    return StateSet(shell.lattice.name, shell.norm, ring, comps, square_norms(comps.reshape(len(comps), -1), ring))


def vector_states(shell: Shell) -> StateSet:
    """Every vector of a shell as a state, unreduced and in shell order.
    A vector's Xi_2 is its state's, since a unit or a scalar leaves Xi_2
    unchanged, so ``xi2`` tags each vector without mapping it to its
    state; nothing else may take these components as canonical."""
    ring, comps = shell.lattice.ring, ring_coords(shell)
    return StateSet(shell.lattice.name, shell.norm, ring, comps, square_norms(shell.rows, ring))


def component_arrays(
    states: StateSet, peak: Callable[[int], int], dtype: type = np.int64
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First coordinates (S, dim), second coordinates (S, dim) and norm_sq
    (S,) of ring-integer states of one dimension, (re, im) for Gaussian
    and (a, b) of a + b*omega for Eisenstein components, for vectorised
    exact arithmetic.

    peak(N) must bound every intermediate of the caller's arithmetic on
    states with norm_sq <= N.  The coordinates are of dtype (int64 or
    float64) and norm_sq int64 when the bound at the largest norm_sq stays
    below the integers that dtype holds exactly, 2**63 for int64 and 2**53
    for float64, and all three hold Python ints (dtype=object) otherwise,
    so the same array code stays exact on any input.
    """
    coords, norms = states.components, states.norm_sq
    if peak(int(norms.max())) < (2**53 if dtype == np.float64 else 2**63):
        norms = norms.astype(np.int64, copy=False)
    else:
        dtype, norms = object, norms.astype(object)
    return coords[..., 0].astype(dtype, copy=False), coords[..., 1].astype(dtype, copy=False), norms

