from fractions import Fraction

import pytest

from magiclattice.exact import EisensteinInt, OMEGA, THETA, ray_reduce
from magiclattice.states import vector_to_state
from magiclattice.magic import WHDisplacement, xi_alpha
from magiclattice import clifford as cl

E = EisensteinInt
W2 = OMEGA * OMEGA


@pytest.fixture(scope="module")
def group():
    return cl.generate_clifford_qutrit()


def test_group_order(group):
    assert len(group) == 216
    assert len({g.key() for g in group}) == 216


def test_group_closed_under_generators(group):
    keys = {g.key() for g in group}
    for g in group[::9]:
        assert (g * cl.H).key() in keys
        assert (g * cl.S).key() in keys


def test_inverses_exist(group):
    # U U^dagger = 3^k I means the conjugate transpose is the inverse up
    # to the tracked theta power, so the group contains it
    keys = {g.key() for g in group}
    for g in group[::24]:
        dagger = cl.CliffordElement(
            tuple(tuple(g.entries[j][i].conjugate() for j in range(3)) for i in range(3)),
            g.theta_power,
        )
        assert dagger.key() in keys


def test_h_and_s_shapes():
    assert cl.H.theta_power == 1
    assert cl.S.theta_power == 0
    assert cl.S.entries[2][2] == OMEGA
    assert cl.IDENTITY.theta_power == 0


def test_unitarity_enforced():
    with pytest.raises(ValueError):
        cl.CliffordElement(((E(1), E(0), E(0)),) * 3, 0)


def test_h_squared_swaps_latter_basis_states():
    h2 = cl.H * cl.H
    e1 = vector_to_state((E(1), E(0), E(0)))
    e2 = vector_to_state((E(0), E(1), E(0)))
    e3 = vector_to_state((E(0), E(0), E(1)))
    assert cl.act(h2, e1).components == e1.components
    assert cl.act(h2, e2).components == e3.components
    assert cl.act(h2, e3).components == e2.components


def test_act_examples():
    e1 = vector_to_state((E(1), E(0), E(0)))
    assert cl.act(cl.H, e1).components == (E(1), E(1), E(1))
    plus = vector_to_state((E(1), E(1), E(0)))
    assert cl.act(cl.S, plus).components == plus.components
    assert cl.act(cl.IDENTITY, plus).components == plus.components
    with pytest.raises(ValueError):
        cl.act(cl.H, vector_to_state((E(1), E(0))))


def test_act_preserves_xi(group):
    st = vector_to_state((THETA, THETA, E(0)))
    for u in group[::18]:
        assert xi_alpha(cl.act(u, st), 2) == Fraction(1, 2)


def test_stabiliser_groups_fixed_order():
    groups = cl.stabiliser_groups_qutrit()
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


def test_scalar_group_rejected():
    bad = cl.StabiliserGroupQutrit(phase_power=1, displacement=WHDisplacement(3, 0, 0))
    with pytest.raises(ValueError):
        bad.validate()


def test_stabiliser_states_are_stabilisers():
    states = [cl.stabiliser_state(g) for g in cl.stabiliser_groups_qutrit()]
    assert len({ray_reduce(s.components) for s in states}) == 12
    for st in states:
        assert xi_alpha(st, 2) == 1
        assert xi_alpha(st, 3) == 1


def test_stabiliser_state_anchor_examples():
    states = [cl.stabiliser_state(g) for g in cl.stabiliser_groups_qutrit()]
    # phase-0 members of each family
    assert ray_reduce(states[0].components) == ray_reduce((E(1), E(1), E(1)))
    assert ray_reduce(states[3].components) == ray_reduce((THETA, E(0), E(0)))
    assert ray_reduce(states[6].components) == ray_reduce((E(1), E(1), W2))
    assert ray_reduce(states[9].components) == ray_reduce((E(1), E(1), OMEGA))


def test_stabiliser_states_match_shortest_shell_rays(store):
    states = [cl.stabiliser_state(g) for g in cl.stabiliser_groups_qutrit()]
    shell_rays = {ray_reduce(s.components) for s in store.states("E6", 3).states}
    assert {ray_reduce(s.components) for s in states} == shell_rays


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


def test_orbit_escape_detected(group):
    e1 = vector_to_state((E(1), E(0), E(0)))
    with pytest.raises(cl.OrbitEscapeError):
        cl.orbit_partition([e1], group)


def test_correspondence_report(store):
    rep = cl.verify_e6_correspondence(store.shell("E6", 3))
    assert rep.ok
    assert rep.vectors_covered == 72
    assert not rep.mismatches
    # coefficient triples of the first and fourth states
    assert rep.betas[0] == ((0, 0), (0, 0), (1, 0))
    assert rep.betas[3] == ((1, 0), (0, 0), (0, 0))
