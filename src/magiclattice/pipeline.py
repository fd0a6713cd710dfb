"""The checks behind every subcommand, one stage function per check.

Each stage returns a small record whose ``checks()`` are (ok, description)
pairs.  A subcommand runs its stage and formats the record; ``reproduce``
runs every stage once and prints one PASS/FAIL line per check.  The
expected tables the checks compare against live here too.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import log
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

from .clifford import (
    CorrespondenceReport,
    generate_clifford_qutrit,
    orbit_partition,
    verify_e6_correspondence,
)
from .entangle import (
    UNCLASSIFIED,
    EntanglementCensus,
    entanglement_census,
    pairwise_concurrence_2qubit,
)
from .lattices import (
    DEFAULT_NODE_BUDGET,
    UNIT_COORDS,
    ThetaCheckResult,
    build_lattice,
    ensure_shell,
    stream_shell,
    theta_check,
)
from .magic import CensusReport, census_rows, stabiliser_count, xi2_histogram
from .states import EmptyShellError, StateSet, canonical_states, vector_states

DEFAULT_NORMS = {"E8": (2, 4, 6, 8), "BW16": (4, 6), "E6": (3, 6, 9, 12, 15)}
HEAVY_NORMS = {"BW16": (8,)}
TABLE_IDS = {"E8": "T2", "BW16": "T3", "E6": "T4"}
# the shells that the stages after the census read
ORBIT_SHELLS = (("E6", 3), ("E6", 6))
ENTANGLE_SHELLS = (("BW16", 4), ("BW16", 6))
TWO_QUBIT_SHELL = ("E8", 4)
LATER_STAGE_SHELLS = {*ORBIT_SHELLS, *ENTANGLE_SHELLS, TWO_QUBIT_SHELL}

# Frozen expected censuses (state counts per exact Xi_2 key).  These are
# the computed values, cross-checked against an independent dense-matrix
# oracle; rows where published reference tables disagree are flagged in
# ROW_NOTES below and the discrepancy follows the computation.
EXPECTED_CENSUS: dict[tuple[str, int], dict[str, int]] = {
    ("E8", 2): {"1": 60},
    ("E8", 4): {"1": 60, "7/16": 480},
    ("E8", 6): {"19/27": 720, "5/9": 960},
    ("E8", 8): {"1": 60, "139/256": 3840, "7/16": 480},
    ("BW16", 4): {"1": 1080},
    ("BW16", 6): {"2/9": 15360},
    ("BW16", 8): {"1": 1080, "7/16": 60480, "11/32": 69120},
    ("E6", 3): {"1": 12},
    ("E6", 6): {"1/2": 45},
    ("E6", 9): {"1": 12, "49/81": 108},
    ("E6", 12): {"1": 12, "17/32": 144},
    ("E6", 15): {"401/625": 216, "353/625": 144},
}

ROW_NOTES: dict[tuple[str, int], str] = {
    ("E6", 15): (
        "reference tables disagree internally on this row's vector total "
        "(1260 vs 2160); counts here follow the enumeration"
    ),
    ("E8", 6): (
        "the published reference table pairs these two state counts the "
        "other way round (960 at 19/27, 720 at 5/9); counts here follow "
        "the computed census, confirmed by an independent dense-matrix oracle"
    ),
    ("E6", 9): (
        "reference prose lists 401/625 for the 108 non-stabiliser states "
        "but the reference table column and the computed census give 49/81"
    ),
}
VECTOR_TOTAL_NOTES = {("E6", 15)}  # notes that the shell report shows too

CLIFFORD_GROUP_SIZE = 216
EXPECTED_STAB_CLASSES = {"I": 216, "II": 432, "III": 432}
EXPECTED_MAGIC_CLASSES = {"A": 1536, "B": 13824}
EXPECTED_2QUBIT_HIST = {"1/4": 192, "1/2": 288}
EXPECTED_ORBITS = {3: [12], 6: [36, 9]}
E8_MAX_MAGIC_XI2 = Fraction(7, 16)

Check = tuple[bool, str]
StateLoader = Callable[[str, int], StateSet]  # (lattice, norm) -> the shell's states


@dataclass(frozen=True)
class ShellResult:
    lattice_name: str
    norm: int
    count: int
    theta: ThetaCheckResult
    seconds: float

    def checks(self) -> list[Check]:
        line = f"shell {self.lattice_name} l={self.norm}: {self.count} vectors ({self.seconds:.2f}s)"
        return [(self.theta.ok, line)]


def shell_stage(
    name: str, norm: int, cache_dir: Optional[Path], node_budget: int = DEFAULT_NODE_BUDGET
) -> ShellResult:
    """Load one shell, or enumerate it and write its cache file; check its size against the theta series."""
    start = time.perf_counter()
    shell = ensure_shell(build_lattice(name), norm, cache_dir=cache_dir, node_budget=node_budget)
    theta = theta_check(shell.lattice, norm, shell.count)
    return ShellResult(name, norm, shell.count, theta, time.perf_counter() - start)


def search_rows(name: str, norm: int, node_budget: int = DEFAULT_NODE_BUDGET) -> Iterator[StateSet]:
    """The chunks of lattices.stream_shell, one vector per unit orbit,
    each row a state unreduced (vector_states), whose Xi_2 is that of its
    state."""
    return map(vector_states, stream_shell(build_lattice(name), norm, node_budget))


def shell_states(name: str, norm: int) -> StateSet:
    """The states of one shell, canonical_states of its stream_shell
    chunks."""
    return canonical_states(stream_shell(build_lattice(name), norm))


@dataclass(frozen=True)
class CensusResult:
    shell: ShellResult
    report: CensusReport
    histogram: dict[str, int]  # str(Xi_2) -> states, in report row order
    ok: bool
    note: Optional[str]
    stabiliser_limit: int  # the stabiliser states of a register of this dimension

    def checks(self) -> list[Check]:
        r = self.report
        note = f"  [note: {self.note}]" if self.note else ""
        stabilisers = self.histogram.get("1", 0)
        if stabilisers > self.stabiliser_limit:
            note += f"  [{stabilisers} states at Xi_2 = 1, more than the {self.stabiliser_limit} stabiliser states]"
        line = f"census {r.lattice_name} l={r.norm}: {self.histogram}{note}"
        return [*self.shell.checks(), (self.ok, line)]


def census_stage(state_sets: Iterable[StateSet]) -> CensusResult:
    """Exact SRE census of one shell, given as StateSets of its lattice and
    norm (search_rows or shell_states) whose states each stand for one unit
    orbit, |units| vectors; a streamed shell is never held whole.

    The shell passes when those vectors match the theta series; as
    stream_shell checks that the rows of a search chunk lie in distinct
    unit orbits, a streamed shell that passes holds one row of each.  The
    census is ok when no more states sit at Xi_2 = 1 than a register of
    that dimension has stabiliser states and the expected table, if there
    is one, matches.  Raises EmptyShellError on a shell with no vectors."""
    clock = time.perf_counter
    counts: Counter[Fraction] = Counter()  # Xi_2 -> states
    states = 0
    shell_seconds, last = 0.0, clock()
    for state_set in state_sets:
        shell_seconds += clock() - last
        counts.update(xi2_histogram(state_set))
        states += state_set.count
        last = clock()
    shell_seconds += clock() - last
    lattice, norm = build_lattice(state_set.lattice_name), state_set.norm
    if not states:
        raise EmptyShellError(f"{lattice.name} l={norm} has no vectors, so no states")
    units = len(UNIT_COORDS[lattice.ring])
    vectors = states * units
    shell = ShellResult(lattice.name, norm, vectors, theta_check(lattice, norm, vectors), shell_seconds)
    rows = census_rows(counts, lattice.complex_dim, lattice.ring)
    report = CensusReport(lattice.name, norm, units, rows, states, vectors)
    histogram = {str(row.xi2): row.state_count for row in rows}
    key = (lattice.name, norm)
    d = 2 if lattice.ring == "gaussian" else 3
    limit = stabiliser_count(round(log(lattice.complex_dim, d)), d)
    ok = histogram.get("1", 0) <= limit and histogram == EXPECTED_CENSUS.get(key, histogram)
    return CensusResult(shell, report, histogram, ok, ROW_NOTES.get(key), limit)


@dataclass(frozen=True)
class OrbitsResult:
    group_size: int
    orbit_sizes: dict[int, list[int]]  # E6 norm -> orbit sizes
    correspondence: CorrespondenceReport

    def checks(self) -> list[Check]:
        c = self.correspondence
        return [
            (self.group_size == CLIFFORD_GROUP_SIZE, f"clifford group size: {self.group_size}"),
            *(
                (sizes == EXPECTED_ORBITS[norm], f"orbit sizes l={norm}: {sizes}")
                for norm, sizes in self.orbit_sizes.items()
            ),
            (c.ok, f"correspondence: {c.vectors_covered} vectors covered"),
        ]


def orbits_stage(states: StateLoader) -> OrbitsResult:
    """The qutrit Clifford group, its orbits on the E6 l=3 and l=6 states,
    and the correspondence of the stabiliser states with the E6 l=3
    states."""
    group = generate_clifford_qutrit()
    state_sets = {norm: states(name, norm) for name, norm in ORBIT_SHELLS}
    sizes = {norm: [o.size for o in orbit_partition(ss, group)] for norm, ss in state_sets.items()}
    return OrbitsResult(len(group), sizes, verify_e6_correspondence(state_sets[3]))


@dataclass(frozen=True)
class EntangleResult:
    censuses: tuple[tuple[StateSet, EntanglementCensus], ...]
    aggregates: dict[str, int]  # class -> states, in order of first appearance

    def checks(self) -> list[Check]:
        stab = {k: self.aggregates.get(k, 0) for k in EXPECTED_STAB_CLASSES}
        magic = {k: self.aggregates.get(k, 0) for k in EXPECTED_MAGIC_CLASSES}
        other = self.aggregates.get(UNCLASSIFIED, 0)  # states outside every class
        magic_line = f"entanglement max magic classes: {magic}"
        if other:
            magic_line += f"  [unclassified: {other}]"
        return [
            (stab == EXPECTED_STAB_CLASSES, f"entanglement stabiliser classes: {stab}"),
            (magic == EXPECTED_MAGIC_CLASSES and not other, magic_line),
        ]


def entangle_stage(states: StateLoader) -> EntangleResult:
    """Entanglement census of the BW16 l=4 and l=6 states."""
    state_sets = [states(*key) for key in ENTANGLE_SHELLS]
    censuses = tuple((ss, entanglement_census(ss)) for ss in state_sets)
    aggregates = Counter(label for _, census in censuses for label in census.labels)
    return EntangleResult(censuses, dict(aggregates))


@dataclass(frozen=True)
class TwoQubitResult:
    rows: tuple[tuple[str, float, Fraction], ...]  # state id, C, C^2
    histogram: dict[str, int]  # str(C^2) -> states, in order of first appearance

    def checks(self) -> list[Check]:
        line = f"2-qubit max magic C^2 histogram: {self.histogram}"
        return [(self.histogram == EXPECTED_2QUBIT_HIST, line)]


def two_qubit_stage(states: StateLoader) -> TwoQubitResult:
    """Concurrence of every maximal-magic state of E8 l=4."""
    state_set = states(*TWO_QUBIT_SHELL)
    rows = tuple(
        (state_set.state_id(i), *pairwise_concurrence_2qubit(state_set[i]))
        for i, xi in enumerate(state_set.xi2)
        if xi == E8_MAX_MAGIC_XI2
    )
    return TwoQubitResult(rows, dict(Counter(str(value_sq) for _, _, value_sq in rows)))
