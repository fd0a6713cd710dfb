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

import csv
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import IO, Callable, Iterator, Sequence, Union

import numpy as np

from .exact import (
    EISENSTEIN_UNITS,
    GAUSSIAN_UNITS,
    EisensteinInt,
    GaussianInt,
    canonical_vector,
    vector_norm,
)
from .lattices import Shell, packed_keys

RingVector = Union[Sequence[GaussianInt], Sequence[EisensteinInt]]


class EmptyShellError(ValueError):
    """Raised when a shell with no vectors is turned into states."""


def real_to_complex(x: Sequence[int]) -> tuple[GaussianInt, ...]:
    """Pair a real vector of even length 2D into D Gaussian components,
    c_k = x_k + i*x_{D+k}.  Scale factors pass through untouched."""
    if len(x) % 2:
        raise ValueError("real vector must have even length")
    half = len(x) // 2
    return tuple(GaussianInt(x[k], x[half + k]) for k in range(half))


@dataclass(frozen=True)
class PureStateExact:
    """Unnormalized pure state with exact ring-integer components.

    components are primitive (integer content 1) and unit-canonical; the
    physical state is components / sqrt(norm_sq).
    """

    ring: str  # "gaussian" or "eisenstein"
    components: tuple
    norm_sq: int
    provenance: tuple = field(default=(), compare=False, hash=False)

    @property
    def dim(self) -> int:
        return len(self.components)

    def sort_key(self) -> tuple:
        return tuple(coord for c in self.components for coord in c.coords())

    def __repr__(self) -> str:  # pragma: no cover
        comps = ", ".join(str(c) for c in self.components)
        return f"PureStateExact([{comps}], N={self.norm_sq})"


def vector_to_state(v: RingVector, provenance: tuple = ()) -> PureStateExact:
    """Map a nonzero ring vector to its canonical PureStateExact:
    primitive_part, then unit_canonicalize, with norm_sq recomputed from
    the reduced components."""
    comps, _content, _unit = canonical_vector(v)
    ring = "gaussian" if isinstance(comps[0], GaussianInt) else "eisenstein"
    return PureStateExact(
        ring=ring,
        components=comps,
        norm_sq=vector_norm(comps),
        provenance=provenance,
    )


@dataclass(frozen=True, eq=False)
class StateSet:
    """Distinct canonical states of shell vectors, as arrays.

    components[s, k] holds the (re, im) or (a, b) coordinates of component
    k of state s, primitive and unit-canonical; the states of a shell
    (dedup) are in lexicographic order of those coordinates, those of a
    chunk's representatives (representatives) in chunk order.
    state_of[v] is the state that vector v reduces to, so the provenance
    of a state is the ascending list of its vectors.  PureStateExact
    objects are built only when asked for: one by index, or all of them
    through ``states``; the exact Xi_2 of every state is computed once, on
    first use of ``xi2``.
    """

    lattice_name: str
    norm: int
    ring: str
    components: np.ndarray  # (S, dim, 2) int64
    norm_sq: np.ndarray  # (S,) int64
    state_of: np.ndarray  # (N,) int64

    @property
    def count(self) -> int:
        return len(self.components)

    def __len__(self) -> int:
        return self.count

    def __getitem__(self, index: int) -> PureStateExact:
        index = range(self.count)[index]
        return self._state(index, tuple(np.flatnonzero(self.state_of == index).tolist()))

    def __iter__(self) -> Iterator[PureStateExact]:
        return iter(self.states)

    @cached_property
    def states(self) -> tuple[PureStateExact, ...]:
        members = np.split(
            np.argsort(self.state_of, kind="stable"),
            np.cumsum(np.bincount(self.state_of, minlength=self.count))[:-1],
        )
        return tuple(self._state(i, tuple(m.tolist())) for i, m in enumerate(members))

    @cached_property
    def xi2(self) -> tuple[Fraction, ...]:
        """Exact Xi_2 of every state, from the batched integer kernel of
        its ring."""
        from .magic import xi_batch_eisenstein, xi_batch_gaussian  # magic imports this module

        kernel = xi_batch_gaussian if self.ring == "gaussian" else xi_batch_eisenstein
        return tuple(kernel(self, alphas=(2,))[2])

    def _state(self, index: int, provenance: tuple) -> PureStateExact:
        cls = GaussianInt if self.ring == "gaussian" else EisensteinInt
        comps = tuple(cls(x, y) for x, y in self.components[index].tolist())
        return PureStateExact(self.ring, comps, int(self.norm_sq[index]), provenance)

    def multiplicity(self, state: PureStateExact) -> int:
        return len(state.provenance)

    @property
    def uniform_multiplicity(self) -> int:
        counts = np.bincount(self.state_of, minlength=self.count)
        if (counts != counts[0]).any():
            raise ValueError(f"{self!r} has states of different multiplicity")
        return int(counts[0])

    @property
    def vector_count(self) -> int:
        return len(self.state_of)

    def state_id(self, index: int) -> str:
        return f"{self.lattice_name}-l{self.norm}-{index:05d}"

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"StateSet({self.lattice_name}, norm={self.norm}, "
            f"states={self.count})"
        )


def _unit_matrices(ring: str) -> np.ndarray:
    """(U, 2, 2): unit u maps the coordinates v of a ring element to
    units[u] @ v, in the order of GAUSSIAN_UNITS or EISENSTEIN_UNITS."""
    cls, units = (GaussianInt, GAUSSIAN_UNITS) if ring == "gaussian" else (EisensteinInt, EISENSTEIN_UNITS)
    images = [[(u * cls(1, 0)).coords(), (u * cls(0, 1)).coords()] for u in units]
    return np.array(images, dtype=np.int64).transpose(0, 2, 1)


def _ring_coords(shell: Shell) -> np.ndarray:
    """(N, dim, 2) view of a shell's ambient rows as ring coordinates."""
    rows, dim = shell.rows, shell.lattice.complex_dim
    if shell.lattice.ring == "gaussian":  # c_k = x_k + i*x_{D+k}, as in real_to_complex
        return rows.reshape(len(rows), 2, dim).swapaxes(1, 2)
    return rows.reshape(len(rows), dim, 2)


def _first_nonzero(coords: np.ndarray) -> np.ndarray:
    """(2, N): the coordinates of each row's first nonzero component."""
    return coords[np.arange(len(coords)), (coords != 0).any(axis=2).argmax(axis=1)].T


def _in_sector(x: np.ndarray, y: np.ndarray, ring: str) -> np.ndarray:
    """Whether each ring element with coordinates (x, y) lies in the
    canonical sector: Gaussian re > 0, im >= 0; Eisenstein b >= 0, a > b.
    Each unit orbit of a nonzero element has exactly one member there."""
    return (x > 0) & (y >= 0) if ring == "gaussian" else (y >= 0) & (x > y)


def _primitive(coords: np.ndarray) -> np.ndarray:
    """Each row of coords divided by its integer content, C-contiguous."""
    return np.floor_divide(coords, np.gcd.reduce(coords, axis=(1, 2))[:, None, None], order="C")


def _norm_sq(comps: np.ndarray, ring: str) -> np.ndarray:
    x, y = comps[..., 0], comps[..., 1]
    return (x * x + y * y if ring == "gaussian" else x * x - x * y + y * y).sum(axis=1)


def _canonical_arrays(coords: np.ndarray, ring: str) -> np.ndarray:
    """canonical_vector of every row of coords, (N, dim, 2) nonzero ring
    vectors, as a C-contiguous array: each row is divided by its integer
    content and rotated by the one unit that moves its first nonzero
    component into the canonical sector."""
    prim = _primitive(coords)
    first = _first_nonzero(prim)
    for unit in _unit_matrices(ring)[1:]:  # in place, one unit at a time
        rows = _in_sector(*(unit @ first), ring)
        prim[rows] = prim[rows] @ unit.T
    return prim


def dedup(shell: Shell) -> StateSet:
    """Group the vectors of a shell into distinct canonical states.

    The unit group acts freely on every shell treated here, so each state
    should absorb exactly |units| vectors (4 Gaussian, 6 Eisenstein); that
    claim is checked at runtime rather than assumed.
    """
    if shell.count == 0:
        raise EmptyShellError(f"{shell.lattice.name} l={shell.norm} has no vectors, so no states")
    ring = shell.lattice.ring
    flat = _canonical_arrays(_ring_coords(shell), ring).reshape(shell.count, -1)
    keys = packed_keys(flat, np.maximum(flat.max(axis=0), -flat.min(axis=0)))
    order = np.lexsort(keys.T[::-1])  # stable, so each state's vectors stay ascending
    keys = keys[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    state_of = np.empty(len(order), dtype=np.int64)
    state_of[order] = np.cumsum(first) - 1
    heads = order[first]  # the first vector of each state
    counts = np.diff(np.append(np.flatnonzero(first), len(order)))
    expected_mult = 4 if ring == "gaussian" else 6
    if (counts != expected_mult).any():
        bad = int(np.argmax(counts != expected_mult))
        raise AssertionError(
            f"state {flat[heads[bad]].tolist()} has multiplicity {counts[bad]}, "
            f"expected {expected_mult} on every {shell.lattice.name} shell"
        )
    comps = flat[heads].reshape(len(counts), -1, 2)
    return StateSet(shell.lattice.name, shell.norm, ring, comps, _norm_sq(comps, ring), state_of)


def representatives(chunk: Shell) -> StateSet:
    """The states that have their representative in a chunk of a shell.

    A vector represents its state when its first nonzero component lies
    in the canonical sector; divided by its integer content it is that
    state's components.  The sector is a fundamental domain of the units
    on the nonzero ring elements, so each unit orbit of vectors has
    exactly one member there.  Two vectors of one shell with one canonical
    state differ by a unit: their integer contents are equal because
    their norms are.  So over the chunks of a unit-closed shell every
    state has exactly one representative, and the representatives times
    |units| are the shell's vectors.  The result is the StateSet of the
    representative vectors alone, in chunk order, so state_of is the
    identity."""
    ring, coords = chunk.lattice.ring, _ring_coords(chunk)
    comps = _primitive(coords[_in_sector(*_first_nonzero(coords), ring)])
    return StateSet(chunk.lattice.name, chunk.norm, ring, comps, _norm_sq(comps, ring), np.arange(len(comps)))


def component_arrays(
    states: Union[StateSet, Sequence[PureStateExact]], peak: Callable[[int], int], ring: str = "gaussian"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First coordinates (S, dim), second coordinates (S, dim) and norm_sq
    (S,) of ring-integer states of one dimension, (re, im) for Gaussian
    and (a, b) of a + b*omega for Eisenstein components, for vectorised
    exact arithmetic.

    peak(N) must bound every intermediate of the caller's arithmetic on
    states with norm_sq <= N.  The arrays are int64 when the bound at the
    largest norm_sq stays below 2**63, and hold Python ints (dtype=object)
    otherwise, so the same array code stays exact on any input.
    """
    if isinstance(states, StateSet):
        if states.ring != ring:
            raise ValueError(f"expected {ring}-integer states")
        coords, norms = states.components, states.norm_sq
        if peak(int(norms.max())) >= 2**63:
            coords, norms = coords.astype(object), norms.astype(object)
        return coords[..., 0], coords[..., 1], norms
    if any(s.ring != ring or s.dim != states[0].dim for s in states):
        raise ValueError(f"expected {ring}-integer states of one dimension")
    dtype = np.int64 if peak(max(s.norm_sq for s in states)) < 2**63 else object
    coords = np.array([[c.coords() for c in s.components] for s in states], dtype=dtype)
    norms = np.array([s.norm_sq for s in states], dtype=dtype)
    return coords[..., 0], coords[..., 1], norms


def overlap_sq(psi: PureStateExact, chi: PureStateExact) -> Fraction:
    """Exact |<psi|chi>|^2 for the normalized states."""
    if psi.ring != chi.ring or psi.dim != chi.dim:
        raise ValueError("states live in different spaces")
    acc = psi.components[0].conjugate() * chi.components[0]
    for a, b in zip(psi.components[1:], chi.components[1:]):
        acc = acc + a.conjugate() * b
    return Fraction(acc.norm(), psi.norm_sq * chi.norm_sq)


# ---------------------------------------------------------------------------
# export


def _component_strings(state: PureStateExact) -> str:
    return ";".join(f"{c.coords()[0]},{c.coords()[1]}" for c in state.components)


def export_csv(state_set: StateSet, fh: IO[str]) -> None:
    writer = csv.writer(fh)
    writer.writerow(["state_id", "components", "norm_sq", "multiplicity"])
    for i, s in enumerate(state_set.states):
        writer.writerow(
            [state_set.state_id(i), _component_strings(s), s.norm_sq, len(s.provenance)]
        )


def export_json(state_set: StateSet) -> str:
    payload = {
        "lattice": state_set.lattice_name,
        "norm": state_set.norm,
        "ring": state_set.ring,
        "states": [
            {
                "state_id": state_set.state_id(i),
                "components": [list(c.coords()) for c in s.components],
                "norm_sq": s.norm_sq,
                "multiplicity": len(s.provenance),
            }
            for i, s in enumerate(state_set.states)
        ],
    }
    return json.dumps(payload, indent=2)
