"""End-to-end acceptance checks, one test per numbered criterion.

Every expected number below is asserted exactly (rationals as Fraction,
counts as int); float comparisons carry their stated tolerance.  The
BW16 l=8 row is opt-in: `pytest -m heavy` runs criterion 9.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from magiclattice import (
    build_lattice,
    entanglement_census,
    generate_clifford_qutrit,
    orbit_partition,
    pairwise_concurrence_2qubit,
    sre_census,
    stabiliser_count,
    theta_check,
    verify_e6_correspondence,
    xi_alpha,
    xi_batch_gaussian,
)
from magiclattice.magic import MAX_MAGIC_SIC, wh_displacements
from oracles import (
    census_histogram,
    classify_entanglement,
    displacement_law_violations,
    mub_orbit_check,
    naive_box_enumerate,
    ray_reduce,
    stabiliser_groups_qutrit,
    stabiliser_state,
    wh_covariance_check_all,
    wootters_gap,
)

F = Fraction

SHELL_COUNTS = {
    "E8": {2: 240, 4: 2160, 6: 6720, 8: 17520},
    "BW16": {4: 4320, 6: 61440},
    "E6": {3: 72, 6: 270, 9: 720, 12: 936},
}

STATE_COUNTS = {
    ("E8", 2): (60, 4),
    ("E8", 4): (540, 4),
    ("BW16", 4): (1080, 4),
    ("BW16", 6): (15360, 4),
    ("E6", 3): (12, 6),
    ("E6", 6): (45, 6),
}

# Xi_2 -> state count.  Two rows deviate from the published reference
# tables and are asserted at the computed truth, both cross-checked by
# an independent dense-matrix oracle: the E8 l=6 pairing (the reference
# swaps 720 and 960) and the E6 l=15 row (whose reference vector total,
# 1260, contradicts the enumerated 2160).  The BW16 l=8 row lives in
# criterion 9.
CENSUS_TABLES = {
    ("E8", 2): {F(1): 60},
    ("E8", 4): {F(1): 60, F(7, 16): 480},
    ("E8", 6): {F(19, 27): 720, F(5, 9): 960},
    ("E8", 8): {F(1): 60, F(139, 256): 3840, F(7, 16): 480},
    ("BW16", 4): {F(1): 1080},
    ("BW16", 6): {F(2, 9): 15360},
    ("E6", 3): {F(1): 12},
    ("E6", 6): {F(1, 2): 45},
    ("E6", 9): {F(1): 12, F(49, 81): 108},
    ("E6", 12): {F(1): 12, F(17, 32): 144},
    ("E6", 15): {F(401, 625): 216, F(353, 625): 144},
}


def test_criterion_1_shell_counts(store):
    light = time.monotonic()
    for name in ("E8", "E6"):
        for norm, count in SHELL_COUNTS[name].items():
            shell = store.shell(name, norm)
            assert shell.count == count, (name, norm)
            check = theta_check(shell.lattice, norm, shell.count)
            assert check.ok, (name, norm, check)
    assert time.monotonic() - light < 10.0
    bw = time.monotonic()
    for norm, count in SHELL_COUNTS["BW16"].items():
        shell = store.shell("BW16", norm)
        assert shell.count == count, norm
        assert theta_check(shell.lattice, norm, shell.count).ok
    assert time.monotonic() - bw < 300.0


def test_criterion_2_distinct_states(store):
    for (name, norm), (count, mult) in STATE_COUNTS.items():
        ss = store.states(name, norm)
        assert ss.count == count, (name, norm)
        # each state absorbs the mult vectors of one unit orbit
        orbits = store.orbits(name, norm)
        assert set(orbits) == {st.components for st in ss.states}
        assert {len(members) for members in orbits.values()} == {mult}
        assert store.shell(name, norm).count == count * mult


def test_criterion_3_sre_census_tables(store):
    for (name, norm), expected in CENSUS_TABLES.items():
        report = sre_census(store.states(name, norm))
        assert census_histogram(report) == expected, (name, norm)
        assert sum(r.state_count for r in report.rows) == report.state_count
        assert report.vector_count == report.state_count * report.multiplicity


def test_criterion_4_bound_saturation(store):
    # BW16 l=6: all 63 nonidentity squared expectations equal 1/9
    bw = store.states("BW16", 6)
    assert bw.count == 15360
    assert wh_covariance_check_all(bw.states)

    # E8 l=4 maximal states: MUB signature {1, 0 x3, 1/4 x12}
    e8 = store.states("E8", 4)
    xi2 = xi_batch_gaussian(e8, alphas=(2,))[2]
    maximal = [s for s, x in zip(e8.states, xi2) if x == F(7, 16)]
    assert len(maximal) == 480
    assert all(mub_orbit_check(s) for s in maximal)

    # E6 l=6: all 8 nonidentity squared expectations equal 1/4
    e6 = store.states("E6", 6)
    assert e6.count == 45
    assert wh_covariance_check_all(e6.states)


def test_criterion_5_stabiliser_property(store):
    assert [stabiliser_count(n) for n in (1, 2, 3)] == [6, 60, 1080]

    # every state found at Xi_2 = 1 must also sit at Xi_3 = 1
    found = {}
    for name, norm in (("E8", 2), ("E8", 4), ("E8", 8), ("BW16", 4)):
        ss = store.states(name, norm)
        batch = xi_batch_gaussian(ss, alphas=(2, 3))
        stab = [
            (x2, x3)
            for x2, x3 in zip(batch[2], batch[3])
            if x2 == 1
        ]
        assert all(x3 == 1 for _, x3 in stab), (name, norm)
        found[(name, norm)] = len(stab)
    assert found[("E8", 2)] == 60
    assert found[("E8", 4)] == 60
    assert found[("E8", 8)] == 60
    assert found[("BW16", 4)] == 1080

    qutrit = store.states("E6", 3)
    assert all(xi_alpha(s, 2) == 1 and xi_alpha(s, 3) == 1 for s in qutrit.states)
    assert qutrit.count == stabiliser_count(1, d=3) == 12


def test_criterion_6_clifford_orbits(store):
    group = generate_clifford_qutrit()
    assert len(group) == 216

    short = store.states("E6", 3)
    assert [o.size for o in orbit_partition(short, group)] == [12]
    maximal = store.states("E6", 6)
    assert [o.size for o in orbit_partition(maximal, group)] == [36, 9]

    groups = stabiliser_groups_qutrit()
    assert len(groups) == 12
    rays = {ray_reduce(s.components) for s in short.states}
    assert {ray_reduce(stabiliser_state(g).components) for g in groups} == rays

    report = verify_e6_correspondence(short)
    assert report.ok and report.vectors_covered == 72 and not report.mismatches


def test_criterion_7_entanglement_census(store):
    start = time.monotonic()
    stab_census = entanglement_census(store.states("BW16", 4))
    assert stab_census.stabiliser_classes == {"I": 216, "II": 432, "III": 432}
    assert not stab_census.magic_classes and stab_census.other == 0

    magic_census = entanglement_census(store.states("BW16", 6))
    assert magic_census.magic_classes == {"A": 1536, "B": 13824}
    assert not magic_census.stabiliser_classes and magic_census.other == 0

    # class membership already forces one-to-other_sq = 2/3 exactly on
    # every state; spot-check the float side at the stated tolerance
    target = math.sqrt(6.0) / 3.0
    states = store.states("BW16", 6).states
    for st in states[::1009]:
        profile = classify_entanglement(st, MAX_MAGIC_SIC)
        assert profile.one_to_other_sq == (F(2, 3),) * 3
        assert all(abs(c - target) <= 1e-9 for c in profile.one_to_other)
        assert profile.f3_sq == F(4, 9) and abs(profile.f3 - 2 / 3) <= 1e-9

    # two-qubit maximal states: C in {1/2 x192, 1/sqrt(2) x288}
    e8 = store.states("E8", 4)
    xi2 = xi_batch_gaussian(e8, alphas=(2,))[2]
    hist: dict[Fraction, int] = {}
    for x, num, den in zip(xi2, *(a.tolist() for a in pairwise_concurrence_2qubit(e8))):
        if x != F(7, 16):
            continue
        hist[F(num, den)] = hist.get(F(num, den), 0) + 1
    assert hist == {F(1, 4): 192, F(1, 2): 288}
    assert time.monotonic() - start < 120.0


def test_criterion_8_oracle_equivalence(store):
    # pruned enumerator vs exhaustive box scan
    for name, norm in (("E8", 2), ("E8", 4), ("E6", 3), ("E6", 6)):
        fast = sorted(map(tuple, store.shell(name, norm).coeffs.tolist()))
        assert fast == naive_box_enumerate(build_lattice(name), norm), (name, norm)

    # Wootters on a pure-state density matrix vs the pure formula
    worst = wootters_gap(random.Random(8), 9)
    assert worst <= 1e-10, worst

    # displacement multiplication law on all 81 qutrit pairs
    assert len(wh_displacements(3)) == 9
    assert displacement_law_violations() == []


@pytest.mark.heavy
def test_criterion_9_bw16_l8(store):
    start = time.monotonic()
    ss = store.states("BW16", 8)
    assert store.shell("BW16", 8).count == 522720
    assert ss.count == 130680
    orbits = store.orbits("BW16", 8)
    assert set(orbits) == {st.components for st in ss.states}
    assert {len(members) for members in orbits.values()} == {4}
    report = sre_census(ss)
    assert census_histogram(report) == {F(1): 1080, F(7, 16): 60480, F(11, 32): 69120}
    # measured ~9 s end to end on a 2-core VM; stated target is 30 min
    assert time.monotonic() - start < 1800.0
