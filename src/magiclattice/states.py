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
from typing import IO, Callable, Sequence, Union

import numpy as np

from .exact import (
    EisensteinInt,
    GaussianInt,
    canonical_vector,
    vector_norm,
)
from .lattices import Shell

RingVector = Union[Sequence[GaussianInt], Sequence[EisensteinInt]]


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


def _shell_components(shell: Shell, index: int) -> RingVector:
    vec = shell.vectors[index]
    if shell.lattice.ring == "gaussian":
        return real_to_complex(vec.ambient)
    return vec.eisenstein_components()


@dataclass(frozen=True)
class StateSet:
    """Distinct canonical states of one shell, with multiplicities."""

    lattice_name: str
    norm: int
    ring: str
    states: tuple[PureStateExact, ...]

    @property
    def count(self) -> int:
        return len(self.states)

    def multiplicity(self, state: PureStateExact) -> int:
        return len(state.provenance)

    @property
    def uniform_multiplicity(self) -> int:
        mult = len(self.states[0].provenance)
        assert all(len(s.provenance) == mult for s in self.states)
        return mult

    @property
    def vector_count(self) -> int:
        return sum(len(s.provenance) for s in self.states)

    def state_id(self, index: int) -> str:
        return f"{self.lattice_name}-l{self.norm}-{index:05d}"

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"StateSet({self.lattice_name}, norm={self.norm}, "
            f"states={self.count})"
        )


def dedup(shell: Shell) -> StateSet:
    """Group the vectors of a shell into distinct canonical states.

    The unit group acts freely on every shell treated here, so each state
    should absorb exactly |units| vectors (4 Gaussian, 6 Eisenstein); that
    claim is asserted at runtime rather than assumed.
    """
    if shell.count == 0:
        raise ValueError("cannot dedup an empty shell")
    groups: dict[tuple, list[int]] = {}
    keys: dict[tuple, tuple] = {}
    for idx in range(shell.count):
        comps, _content, _unit = canonical_vector(_shell_components(shell, idx))
        key = tuple(c.coords() for c in comps)
        groups.setdefault(key, []).append(idx)
        keys[key] = comps
    expected_mult = 4 if shell.lattice.ring == "gaussian" else 6
    for key, members in groups.items():
        if len(members) != expected_mult:
            raise AssertionError(
                f"state {key} has multiplicity {len(members)}, "
                f"expected {expected_mult} on every {shell.lattice.name} shell"
            )
    states = []
    for key in sorted(groups):
        comps = keys[key]
        states.append(
            PureStateExact(
                ring=shell.lattice.ring,
                components=comps,
                norm_sq=vector_norm(comps),
                provenance=tuple(groups[key]),
            )
        )
    return StateSet(
        lattice_name=shell.lattice.name,
        norm=shell.norm,
        ring=shell.lattice.ring,
        states=tuple(states),
    )


def component_arrays(
    states: Sequence[PureStateExact], peak: Callable[[int], int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Real parts (S, dim), imaginary parts (S, dim) and norm_sq (S,) of
    Gaussian-integer states, for vectorised exact arithmetic.

    peak(N) must bound every intermediate of the caller's arithmetic on
    states with norm_sq <= N.  The arrays are int64 when the bound at the
    largest norm_sq stays below 2**63, and hold Python ints (dtype=object)
    otherwise, so the same array code stays exact on any input.
    """
    dtype = np.int64 if peak(max(s.norm_sq for s in states)) < 2**63 else object
    re = np.array([[c.re for c in s.components] for s in states], dtype=dtype)
    im = np.array([[c.im for c in s.components] for s in states], dtype=dtype)
    norms = np.array([s.norm_sq for s in states], dtype=dtype)
    return re, im, norms


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
