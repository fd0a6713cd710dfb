import os
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import oracles
from magiclattice.exact import EisensteinInt, OMEGA, THETA
from magiclattice.lattices import HeadroomError, packed_keys, ring_matmul
from magiclattice.states import StateSet, ray_keys
from magiclattice.magic import WHDisplacement, xi_alpha
from magiclattice import clifford as cl
from oracles import ray_reduce, vector_to_state

E = EisensteinInt
W2 = OMEGA * OMEGA
H_ARRAY, S_ARRAY = cl.H_ENTRIES, cl.S_ENTRIES


@pytest.fixture(scope="module")
def group():
    return cl.generate_clifford_qutrit()


@pytest.fixture(scope="module")
def object_group():
    return oracles.generate_clifford_qutrit()


def key_set(entries):
    """The ray keys of (M, 3, 3, 2) matrices, as a set of tuples."""
    return {tuple(k) for k in ray_keys(entries.reshape(-1, 9, 2), "eisenstein").reshape(len(entries), 18).tolist()}


def image(entries, state):
    """The canonical state of one (3, 3, 2) matrix applied to a state."""
    coords = np.array([z.coords() for z in state.components])
    out = ring_matmul(entries, coords[:, None], "eisenstein")[:, 0]
    return vector_to_state(tuple(E(*z) for z in out.tolist()))


def test_group_order(group):
    assert len(group) == 216
    assert group.entries.shape == (216, 3, 3, 2) and group.theta_power.shape == (216,)
    assert len(key_set(group.entries)) == 216


def test_group_matches_the_object_bfs(group, object_group):
    # element k and its scale are those of the object closure, whose
    # canonical keys also tell all 216 apart
    entries = [[[list(z.coords()) for z in row] for row in g.entries] for g in object_group]
    assert group.entries.tolist() == entries
    assert group.theta_power.tolist() == [g.theta_power for g in object_group]
    assert len({g.key() for g in object_group}) == len(key_set(group.entries)) == 216


def test_group_closed_under_generators(group):
    keys = key_set(group.entries)
    for gen in (H_ARRAY, S_ARRAY):
        assert key_set(ring_matmul(group.entries, gen, "eisenstein")) <= keys


def test_inverses_exist(group):
    # U U^dagger = 3^k I means the conjugate transpose is the inverse up
    # to the tracked theta power, so the group contains it
    a, b = group.entries[..., 0], group.entries[..., 1]
    dagger = np.stack((a - b, -b), axis=-1).swapaxes(1, 2)
    assert key_set(dagger) == key_set(group.entries)


def test_h_and_s_shapes(group):
    # the closure starts from the identity, then identity * H, identity * S
    assert group.entries[0].tolist() == cl.IDENTITY_ENTRIES.tolist()
    assert group.entries[1].tolist() == H_ARRAY.tolist()
    assert group.entries[2].tolist() == S_ARRAY.tolist()
    assert group.theta_power[:3].tolist() == [0, 1, 0]
    assert tuple(group.entries[2, 2, 2]) == OMEGA.coords()
    assert not group.entries.flags.writeable


def test_unitarity_enforced():
    # H at scale theta^0: the products close on the right rays, but
    # H H^dagger = 3 I is not 3^0 I
    with pytest.raises(ValueError, match="not unitary"):
        cl._closure(np.stack([H_ARRAY, S_ARRAY]), np.array([0, 0]))


@pytest.mark.parametrize("wrong", [(0, -1), (1, 1), (0, 2)])
def test_a_wrong_omega_in_s_leaves_the_group_order(wrong):
    bad = S_ARRAY.copy()
    bad[2, 2] = wrong
    with pytest.raises(cl.ClosureError, match="past 216"):
        cl._closure(np.stack([H_ARRAY, bad]), np.array([1, 0]))


_GUARD_SCRIPT = """
import numpy as np
from magiclattice import clifford as cl
H, S = cl.H_ENTRIES, cl.S_ENTRIES
bad = S.copy()
bad[2, 2] = (0, -1)
for generators, theta, error in ((np.stack([H, S]), [0, 0], ValueError), (np.stack([H, bad]), [1, 0], cl.ClosureError)):
    try:
        cl._closure(generators, np.array(theta))
    except error:
        print("raised")
"""


def test_closure_guards_hold_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(Path(cl.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _GUARD_SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["raised", "raised"]


def test_h_squared_swaps_latter_basis_states(group):
    h2 = ring_matmul(H_ARRAY, H_ARRAY, "eisenstein")
    e1 = vector_to_state((E(1), E(0), E(0)))
    e2 = vector_to_state((E(0), E(1), E(0)))
    e3 = vector_to_state((E(0), E(0), E(1)))
    assert image(h2, e1).components == e1.components
    assert image(h2, e2).components == e3.components
    assert image(h2, e3).components == e2.components
    # the object oracle agrees
    object_h2 = oracles.H * oracles.H
    for st in (e1, e2, e3):
        assert oracles.act(object_h2, st) == image(h2, st)


def test_act_examples(group):
    e1 = vector_to_state((E(1), E(0), E(0)))
    plus = vector_to_state((E(1), E(1), E(0)))
    # group elements 0, 1, 2 are the identity, H and S
    for st, k, expected in ((e1, 1, (E(1), E(1), E(1))), (plus, 2, plus.components), (plus, 0, plus.components)):
        assert image(group.entries[k], st).components == expected
    assert oracles.act(oracles.H, e1).components == (E(1), E(1), E(1))
    assert oracles.act(oracles.S, plus).components == plus.components
    with pytest.raises(ValueError):
        oracles.act(oracles.H, vector_to_state((E(1), E(0))))
    with pytest.raises(ValueError, match="single-qutrit"):
        cl.orbit_partition(oracles.state_set([vector_to_state((E(1), E(0)))]), group)


def test_act_preserves_xi(group):
    st = vector_to_state((THETA, THETA, E(0)))
    images = cl._images(group, np.array([z.coords() for z in st.components]))
    for coords in images[::18].tolist():
        assert xi_alpha(vector_to_state(tuple(E(*z) for z in coords)), 2) == Fraction(1, 2)


def stabiliser_states():
    """The 12 stabiliser states of clifford.stabiliser_states as objects."""
    return StateSet("stabiliser", 0, "eisenstein", *cl.stabiliser_states(cl.stabiliser_generators())).states


def test_stabiliser_groups_fixed_order():
    groups = oracles.stabiliser_groups_qutrit()
    assert len(groups) == 12
    assert [(g.displacement.a1, g.displacement.a2, g.phase_power) for g in groups] == [
        (1, 0, 0), (1, 0, 1), (1, 0, 2),
        (0, 1, 0), (0, 1, 1), (0, 1, 2),
        (1, 1, 0), (1, 1, 1), (1, 1, 2),
        (1, 2, 0), (1, 2, 1), (1, 2, 2),
    ]
    # the clock group generator is diag(1, omega, omega^2)
    assert groups[3].generator_matrix() == (
        (E(1), E(0), E(0)), (E(0), OMEGA, E(0)), (E(0), E(0), W2)
    )
    # the array generators are the oracle's, in the same order
    generators = cl.stabiliser_generators()
    assert generators.shape == (12, 3, 3, 2)
    assert [oracles.object_matrix(g) for g in generators] == [g.generator_matrix() for g in groups]


def test_scalar_group_rejected():
    bad = oracles.StabiliserGroupQutrit(phase_power=1, displacement=WHDisplacement(3, 0, 0))
    with pytest.raises(ValueError):
        bad.validate()


def test_stabiliser_states_match_the_object_oracle():
    # in order, with the same components and norms
    expected = [oracles.stabiliser_state(g) for g in oracles.stabiliser_groups_qutrit()]
    assert list(stabiliser_states()) == expected
    assert [s.norm_sq for s in expected] == [3, 3, 3, 1, 1, 1, 3, 3, 3, 3, 3, 3]


OMEGA_D00 = [[(0, 1), (0, 0), (0, 0)], [(0, 0), (0, 1), (0, 0)], [(0, 0), (0, 0), (0, 1)]]
# D(1,0) with omega in place of 1 at entry (0, 1): its cube is omega * 1
WRONG_POWER = [[(0, 0), (0, 1), (0, 0)], [(0, 0), (0, 0), (1, 0)], [(1, 0), (0, 0), (0, 0)]]
# diag(omega, omega^2, omega) has order 3 and no eigenvalue 1, so 1 + g + g^2 = 0
NO_EIGENVALUE_ONE = [[(0, 1), (0, 0), (0, 0)], [(0, 0), (-1, -1), (0, 0)], [(0, 0), (0, 0), (0, 1)]]
BAD_GENERATORS = {
    "scalar": (OMEGA_D00, ValueError, "nontrivial scalar"),
    "order": (WRONG_POWER, ValueError, "order 3"),
    "projector": (NO_EIGENVALUE_ONE, RuntimeError, "annihilated every basis vector"),
}


@pytest.mark.parametrize("case", BAD_GENERATORS)
def test_stabiliser_checks_raise_on_a_bad_generator(case):
    bad, error, match = BAD_GENERATORS[case]
    # the bad generator beside the 12 good ones, so one bad matrix suffices
    generators = np.concatenate([cl.stabiliser_generators(), np.array([bad])])
    with pytest.raises(error, match=match):
        cl.stabiliser_states(generators)


_STABILISER_GUARD_SCRIPT = """
import numpy as np
from magiclattice import clifford as cl
from test_clifford import BAD_GENERATORS
for bad, error, _ in BAD_GENERATORS.values():
    try:
        cl.stabiliser_states(np.array([bad]))
    except error:
        print("raised")
"""


def test_stabiliser_guards_hold_under_optimize():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (Path(cl.__file__).parents[1], tests))))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _STABILISER_GUARD_SCRIPT], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["raised"] * 3


def test_stabiliser_states_are_stabilisers():
    states = stabiliser_states()
    assert len({ray_reduce(s.components) for s in states}) == 12
    for st in states:
        assert xi_alpha(st, 2) == 1
        assert xi_alpha(st, 3) == 1


def test_stabiliser_state_anchor_examples():
    states = stabiliser_states()
    # phase-0 members of each family
    assert ray_reduce(states[0].components) == ray_reduce((E(1), E(1), E(1)))
    assert ray_reduce(states[3].components) == ray_reduce((THETA, E(0), E(0)))
    assert ray_reduce(states[6].components) == ray_reduce((E(1), E(1), W2))
    assert ray_reduce(states[9].components) == ray_reduce((E(1), E(1), OMEGA))


def test_stabiliser_states_match_shortest_shell_rays(store):
    shell_rays = {ray_reduce(s.components) for s in store.states("E6", 3).states}
    assert {ray_reduce(s.components) for s in stabiliser_states()} == shell_rays
    assert {ray_reduce(oracles.stabiliser_state(g).components) for g in oracles.stabiliser_groups_qutrit()} == shell_rays


def test_orbit_partition_stabilisers(store, group):
    orbits = cl.orbit_partition(store.states("E6", 3), group)
    assert [o.size for o in orbits] == [12]


def test_orbit_partition_max_magic(store, group):
    ss = store.states("E6", 6)
    orbits = cl.orbit_partition(ss, group)
    assert [o.size for o in orbits] == [36, 9]
    # xi is constant on each orbit
    for orbit in orbits:
        assert {xi_alpha(ss.states[i], 2) for i in orbit.members} == {Fraction(1, 2)}


def test_orbit_partition_refuses_two_states_on_one_ray(store, group):
    # E6 l=21 = 3 * 7 with 7 = pi * conj(pi) split: for w of l=3, pi * w
    # and conj(pi) * w are two of its states on the ray of w
    with pytest.raises(ValueError, match=r"^states \d+ and \d+ lie on one ray"):
        cl.orbit_partition(store.states("E6", 21), group)


def test_orbit_escape_detected(group, object_group):
    e1 = vector_to_state((E(1), E(0), E(0)))
    with pytest.raises(cl.OrbitEscapeError) as caught:
        cl.orbit_partition(oracles.state_set([e1]), group)
    with pytest.raises(cl.OrbitEscapeError) as expected:
        oracles.orbit_partition([e1], object_group)
    # the first image outside the set, in group order, as the canonical
    # coordinates of the oracle's state and image
    assert caught.value.state == [[1, 0], [0, 0], [0, 0]]
    assert (caught.value.state, caught.value.image) == (expected.value.state, expected.value.image)
    assert caught.value.image == [list(z.coords()) for z in oracles.act(object_group[1], e1).components]
    assert str(caught.value) == str(expected.value)


@pytest.mark.parametrize("norm", range(3, 46, 3))
def test_orbit_partition_matches_the_object_oracle(store, group, object_group, norm):
    # E6 l = 21, 39 and 42 hold two states on one ray (a split prime
    # divides the norm), which both refuse with the same pair
    states = store.states("E6", norm)
    try:
        expected = oracles.orbit_partition(states, object_group)
    except ValueError as exc:
        assert norm in (21, 39, 42)
        with pytest.raises(ValueError) as caught:
            cl.orbit_partition(states, group)
        assert str(caught.value) == str(exc)
        return
    assert cl.orbit_partition(states, group) == expected


def test_orbit_partition_with_multiword_keys(group, object_group):
    # components near 600 give keys past one int64 word, so the sorted
    # keys are records of two words
    seed = vector_to_state((E(613, 5), E(-577, 301), E(2, -599)))
    rays = {}
    for u in object_group:
        st = oracles.act(u, seed)
        rays.setdefault(ray_reduce(st.components), st)
    states = list(rays.values())[::-1]
    state_set = oracles.state_set(states)
    keys = ray_keys(state_set.components, "eisenstein").reshape(len(states), 6)
    assert packed_keys(keys, np.abs(keys).max(axis=0)).shape[1] > 1
    assert cl.orbit_partition(state_set, group) == oracles.orbit_partition(states, object_group)
    with pytest.raises(cl.OrbitEscapeError):
        cl.orbit_partition(state_set[1:], group)


def test_orbit_partition_refuses_coordinates_past_the_headroom(group):
    with pytest.raises(HeadroomError):
        cl.orbit_partition(oracles.state_set([vector_to_state((E(2**28), E(1), E(0)))]), group)


def test_correspondence_report(store):
    rep = cl.verify_e6_correspondence(store.states("E6", 3))
    assert rep.ok
    assert rep.vectors_covered == 72
    assert not rep.mismatches
    # coefficient triples of the first and fourth states
    assert rep.betas[0] == ((0, 0), (0, 0), (1, 0))
    assert rep.betas[3] == ((1, 0), (0, 0), (0, 0))


def test_correspondence_fails_on_a_state_that_is_no_stabiliser(store):
    # a maximal-magic state in place of one of the 12 stabiliser states
    states = list(store.states("E6", 3))
    states[5] = vector_to_state((THETA, THETA, E(0)))
    rep = cl.verify_e6_correspondence(replace(oracles.state_set(states), lattice_name="E6", norm=3))
    assert not rep.ok and rep.vectors_covered == 66
    assert len(rep.mismatches) == 2 and rep.mismatches[-1] == "1 E6 l=3 states not reached by any stabiliser state"
