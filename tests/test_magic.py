import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import magiclattice
import oracles
from magiclattice.exact import EisensteinInt, GaussianInt, OMEGA, THETA
from magiclattice.states import StateSet, component_arrays
from magiclattice import magic as mg
from oracles import census_histogram, overlap_sq, real_to_complex, state_set, vector_to_state, wh_matrix

G = GaussianInt
E = EisensteinInt
W2 = OMEGA * OMEGA
TESTS = Path(__file__).resolve().parent


def qstate(*vals):
    return vector_to_state(tuple(G(v) if isinstance(v, int) else G(*v) for v in vals))


# ---------------------------------------------------------------------------
# operators


def test_pauli_strings_order():
    ops = mg.pauli_strings(2)
    assert len(ops) == 16
    assert ops[0].labels == "II"
    assert ops[1].labels == "IX"
    assert ops[-1].labels == "ZZ"


def test_pauli_masks():
    xm, zm, yc = mg.PauliString("XYZ").masks()
    # qubit 0 is the most significant bit
    assert xm == 0b110
    assert zm == 0b011
    assert yc == 1


def test_qutrit_displacement_matrices():
    one, zero = E(1), E(0)
    assert wh_matrix(mg.WHDisplacement(3, 1, 0)) == (
        (zero, one, zero), (zero, zero, one), (one, zero, zero)
    )
    assert wh_matrix(mg.WHDisplacement(3, 0, 1)) == (
        (one, zero, zero), (zero, OMEGA, zero), (zero, zero, W2)
    )
    assert wh_matrix(mg.WHDisplacement(3, 1, 1)) == (
        (zero, one, zero), (zero, zero, OMEGA), (W2, zero, zero)
    )
    assert wh_matrix(mg.WHDisplacement(3, 1, 2)) == (
        (zero, one, zero), (zero, zero, W2), (OMEGA, zero, zero)
    )


def test_qutrit_multiplication_law_all_81_pairs():
    # D_a D_b = tau^e D_{a+b} entrywise, tau = omega^2
    assert len(mg.wh_displacements(3)) == 9
    assert oracles.displacement_law_violations() == []


def test_apply_operator_matches_matrix():
    psi = vector_to_state((E(2, 1), E(-1, 0), E(0, -1)))
    for op in mg.wh_displacements(3):
        m = wh_matrix(op)
        direct = tuple(
            sum((m[i][k] * psi.components[k] for k in range(3)), E(0)) for i in range(3)
        )
        assert oracles._apply_components(op, psi) == direct


def test_apply_operator_qubits():
    # X on qubit 0 of |00> gives |10>
    st = qstate(1, 0, 0, 0)
    op = mg.PauliString(("X", "I"))
    moved = oracles.apply_operator(op, st)
    assert moved.components == qstate(0, 0, 1, 0).components


# ---------------------------------------------------------------------------
# xi / classification


def test_xi_stabiliser_state():
    st00 = qstate(1, 0, 0, 0)
    assert mg.xi_alpha(st00, 2) == 1
    assert mg.xi_alpha(st00, 3) == 1
    assert oracles.m_alpha(st00, 2) == 0.0


def test_xi_two_qubit_max_magic():
    st = vector_to_state(real_to_complex((0, 0, 0, 1, 0, 1, 1, 1)))
    assert mg.xi_alpha(st, 2) == Fraction(7, 16)
    assert mg.magic_label(Fraction(7, 16), 4, "gaussian") == mg.MAX_MAGIC_MUB
    rep = oracles.classify(st)
    assert rep.label == mg.MAX_MAGIC_MUB
    assert math.isclose(oracles.m_alpha(st, 2), -math.log2(7 / 16))


def test_xi_qutrit_sic():
    st = vector_to_state((THETA, THETA, E(0)))
    assert mg.xi_alpha(st, 2) == Fraction(1, 2)
    assert mg.magic_label(Fraction(1, 2), 3, "eisenstein") == mg.MAX_MAGIC_SIC


def test_xi_unit_rescaling_invariant():
    st = vector_to_state(real_to_complex((0, 0, 0, 1, 0, 1, 1, 1)))
    rescaled = vector_to_state(tuple(G(0, 1) * c for c in st.components))
    assert mg.xi_alpha(st, 2) == mg.xi_alpha(rescaled, 2)


def test_frame_identity():
    # sum over the full operator set of expectation_sq equals the dimension
    for st in (qstate(1, 0, 0, 0), qstate(1, 1, 1, (1, -1))):
        total = sum(oracles.expectation_sq(st, op) for op in mg.pauli_strings(2))
        assert total == st.dim


def test_xi_alpha_validates_alpha():
    with pytest.raises(ValueError):
        mg.xi_alpha(qstate(1, 0, 0, 0), 0)
    with pytest.raises(ValueError):
        oracles.m_alpha(qstate(1, 0, 0, 0), 1)


# ---------------------------------------------------------------------------
# bounds


def test_extremal_bounds():
    sic = mg.extremal_bounds(4, 1)
    assert sic.xi_min == Fraction(2, 5)
    mub = mg.extremal_bounds(4, 0)
    assert mub.xi_min == Fraction(7, 16)
    assert mg.extremal_bounds(8, 1).xi_min == Fraction(2, 9)
    assert mg.extremal_bounds(3, 1).xi_min == Fraction(1, 2)
    assert mg.extremal_bounds(2, 1).xi_min == Fraction(2, 3)


def test_applicable_bounds():
    assert mg.applicable_bounds(4, "gaussian").xi_min == Fraction(7, 16)
    assert mg.applicable_bounds(8, "gaussian").xi_min == Fraction(2, 9)
    assert mg.applicable_bounds(3, "eisenstein").xi_min == Fraction(1, 2)


def test_bounds_bracket_census_values(store):
    ss = store.states("E8", 4)
    lo = mg.applicable_bounds(4, "gaussian").xi_min
    for st in ss.states:
        xi = mg.xi_alpha(st, 2)
        assert lo <= xi <= 1


def test_stabiliser_count():
    assert [mg.stabiliser_count(n) for n in (1, 2, 3)] == [6, 60, 1080]
    assert mg.stabiliser_count(1, d=3) == 12
    with pytest.raises(ValueError):
        mg.stabiliser_count(0)


# ---------------------------------------------------------------------------
# saturation checks


def test_wh_covariance_check():
    assert oracles.wh_covariance_check(vector_to_state((THETA, THETA, E(0)))) is True
    assert oracles.wh_covariance_check(vector_to_state((E(1), E(0), E(0)))) is False


def test_mub_orbit_check_both_modes():
    st = vector_to_state(real_to_complex((0, 0, 0, 1, 0, 1, 1, 1)))
    assert oracles.mub_orbit_check(st) is True
    assert oracles.mub_orbit_check(st, build_orbit=True) is True
    assert oracles.mub_orbit_check(qstate(1, 0, 0, 0)) is False
    with pytest.raises(ValueError):
        oracles.mub_orbit_check(qstate(1, 0))


def test_sic_check_single_qutrit_fiducial():
    ok, violations = oracles.sic_check(vector_to_state((THETA, THETA, E(0))))
    assert ok and not violations


def test_sic_check_qutrit_orbit_is_nine_states():
    fid = vector_to_state((THETA, THETA, E(0)))
    orbit = []
    seen = set()
    for op in mg.wh_displacements(3):
        st = oracles.apply_operator(op, fid)
        if st.components not in seen:
            seen.add(st.components)
            orbit.append(st)
    assert len(orbit) == 9
    assert all(
        overlap_sq(orbit[i], orbit[j]) == Fraction(1, 4)
        for i in range(9)
        for j in range(i + 1, 9)
    )
    ok, violations = oracles.sic_check(orbit)
    assert ok, violations


def test_sic_check_rejects_basis_states():
    ok, violations = oracles.sic_check([qstate(1, 0, 0, 0), qstate(0, 1, 0, 0)])
    assert not ok and violations


def test_sic_check_three_qubit_orbit(store):
    # the WH orbit of a BW16 fiducial has 64 states at overlap 1/9
    fid = store.states("BW16", 6).states[0]
    orbit = {}
    for op in mg.pauli_strings(3):
        st = oracles.apply_operator(op, fid)
        orbit[st.components] = st
    assert len(orbit) == 64
    states = list(orbit.values())
    assert all(
        overlap_sq(states[i], states[j]) == Fraction(1, 9)
        for i in range(8)
        for j in range(i + 1, 8)
    )
    ok, violations = oracles.sic_check(states)
    assert ok, violations


# ---------------------------------------------------------------------------
# batch path and censuses


def test_batch_matches_scalar(store):
    ss = store.states("E8", 2)
    by_alpha = mg.xi_batch_gaussian(ss, alphas=(2, 3))
    for st, x2, x3 in zip(ss.states, by_alpha[2], by_alpha[3]):
        assert x2 == mg.xi_alpha(st, 2)
        assert x3 == mg.xi_alpha(st, 3)


def test_batch_exact_past_int64_headroom():
    # N = 391876: 4^n N^(2 alpha) is far past 2^63, so int64 sums would wrap
    st = qstate(625, 25, 25, 1)
    assert st.norm_sq == 391876
    by_alpha = mg.xi_batch_gaussian(state_set([st]), alphas=(2, 3))
    assert by_alpha[2] == [mg.xi_alpha(st, 2)]
    assert by_alpha[3] == [mg.xi_alpha(st, 3)]
    assert by_alpha[3][0] > 0


def qubit_states(n, bound):
    component = hs.tuples(hs.integers(-bound, bound), hs.integers(-bound, bound))
    vectors = hs.lists(component, min_size=1 << n, max_size=1 << n)
    vectors = vectors.filter(lambda v: any(a or b for a, b in v))
    return vectors.map(lambda v: vector_to_state(tuple(G(*z) for z in v)))


@settings(max_examples=40, deadline=None)
@given(
    hs.integers(1, 3).flatmap(
        lambda n: hs.lists(
            hs.one_of(qubit_states(n, 3), qubit_states(n, 10**5)), min_size=1, max_size=4
        )
    )
)
def test_batch_matches_scalar_on_random_states(states):
    by_alpha = mg.xi_batch_gaussian(state_set(states), alphas=(2, 3))
    assert by_alpha[2] == [mg.xi_alpha(st, 2) for st in states]
    assert by_alpha[3] == [mg.xi_alpha(st, 3) for st in states]
    assert oracles.wh_covariance_check_all(states) == all(oracles.wh_covariance_check(st) for st in states)


@pytest.mark.parametrize("dtype, bound", [(np.int64, 10**3), (np.float64, 10**3), (object, 10**5)])
@settings(max_examples=30, deadline=None)
@given(data=hs.data())
def test_pauli_norms_per_x_mask_match_the_scalar_norms(dtype, bound, data):
    # the halved sums reorder the rows of a mask, never its values; the
    # component-major kernel gives the state-major oracle's arrays
    # transposed, in every dtype tier
    n = data.draw(hs.integers(1, 3))
    states = data.draw(hs.lists(qubit_states(n, bound), min_size=1, max_size=4))
    re, im, norms = component_arrays(state_set(states), lambda nn: nn * nn, dtype=dtype)
    assert re.dtype == dtype
    strings = mg.pauli_strings(n)
    oracle = oracles.row_major_pauli_norms(re, im, n)
    for x, (values, expected) in enumerate(zip(mg._pauli_norms(re.T.copy(), im.T.copy(), n), oracle, strict=True)):
        assert values.shape == (1 << n, len(states)) and values.dtype == dtype
        assert values.T.tolist() == expected.tolist()
        for column, st in zip(values.T.tolist(), states):
            assert sorted(column) == sorted(mg._bilinear_norm(p, st) for p in strings if p.masks()[0] == x)
        if x == 0:
            assert values[0].tolist() == (norms * norms).tolist()  # the identity


@pytest.mark.parametrize("dtype, bound", [(np.int64, 10**3), (np.float64, 10**3), (object, 2**40)])
@settings(max_examples=30, deadline=None)
@given(data=hs.data())
def test_displacement_norms_per_shift_match_the_scalar_norms(dtype, bound, data):
    # row a2 of shift a1 is D_{a1,a2}, as column a2 of the state-major oracle
    states = data.draw(hs.lists(qutrit_states(bound), min_size=1, max_size=4))
    a, b, norms = component_arrays(state_set(states), lambda nn: 16 * nn * nn, dtype=dtype)
    assert a.dtype == dtype
    oracle = oracles.row_major_displacement_norms(a, b)
    for a1, (values, expected) in enumerate(zip(mg._displacement_norms(a.T.copy(), b.T.copy()), oracle, strict=True)):
        assert values.shape == (3, len(states)) and values.dtype == dtype
        assert values.T.tolist() == expected.tolist()
        for column, st in zip(values.T.tolist(), states):
            assert column == [mg._bilinear_norm(mg.WHDisplacement(3, a1, a2), st) for a2 in range(3)]


def test_states_of_different_norms_share_a_xi2_class():
    # |0> with norm_sq 1 and (2 + i)|0> with norm_sq 5: one stabiliser class
    pair = [vector_to_state((G(1), G(0))), vector_to_state((G(2, 1), G(0)))]
    assert [st.norm_sq for st in pair] == [1, 5]
    values, index = mg.xi_classes(state_set(pair))[2]
    assert values == (Fraction(1),) and index.tolist() == [0, 0]
    assert census_histogram(mg.sre_census(state_set(pair))) == {Fraction(1): 2}


def test_empty_state_set_has_no_xi2_classes():
    empty = StateSet("none", 1, "gaussian", np.zeros((0, 4, 2), np.int64), np.zeros(0, np.int64))
    values, index = empty.xi2_classes
    assert values == () and index.shape == (0,)
    assert empty.xi2 == () and mg.sre_census(empty).rows == ()


def test_census_batch_equals_scalar(store):
    ss = store.states("E8", 4)
    batch = mg.sre_census(ss)
    scalar = Counter(mg.xi_alpha(st, 2) for st in ss.states)
    assert census_histogram(batch) == dict(scalar)
    assert census_histogram(batch) == {Fraction(1): 60, Fraction(7, 16): 480}


def test_census_report_fields(store):
    rep = mg.sre_census(store.states("E6", 6))
    assert rep.lattice_name == "E6" and rep.norm == 6
    assert rep.multiplicity == 6
    assert rep.vector_count == 270
    assert census_histogram(rep) == {Fraction(1, 2): 45}
    assert [(r.label, r.state_count) for r in rep.rows] == [(mg.MAX_MAGIC_SIC, 45)]
    # rows are sorted by xi2 descending
    rep9 = mg.sre_census(store.states("E6", 9))
    assert [r.xi2 for r in rep9.rows] == [Fraction(1), Fraction(49, 81)]


def test_wh_covariance_check_all_both_rings(store):
    # eisenstein states go through the scalar path inside the batch helper
    assert oracles.wh_covariance_check_all(store.states("E6", 6).states) is True
    # stabiliser states are not SIC fiducials
    assert oracles.wh_covariance_check_all(store.states("E8", 2).states) is False


def qutrit_states(bound):
    component = hs.tuples(hs.integers(-bound, bound), hs.integers(-bound, bound))
    vectors = hs.lists(component, min_size=3, max_size=3).filter(lambda v: any(a or b for a, b in v))
    return vectors.map(lambda v: vector_to_state(tuple(E(*z) for z in v)))


@settings(max_examples=60, deadline=None)
@given(hs.lists(hs.one_of(qutrit_states(3), qutrit_states(10**5), qutrit_states(2**40)), min_size=1, max_size=5))
def test_eisenstein_batch_matches_scalar_on_random_states(states):
    # norm_sq up to about 2^82: 9 N^(2 alpha) is then far past 2^63, and
    # the kernel must fall back to Python ints
    by_alpha = oracles.xi_batch_eisenstein(state_set(states), alphas=(2, 3))
    assert by_alpha[2] == [mg.xi_alpha(st, 2) for st in states]
    assert by_alpha[3] == [mg.xi_alpha(st, 3) for st in states]


@settings(max_examples=40, deadline=None)
@given(
    hs.one_of(
        hs.integers(1, 3).flatmap(
            lambda n: hs.lists(hs.one_of(qubit_states(n, 3), qubit_states(n, 10**5)), min_size=1, max_size=4)
        ),
        hs.lists(hs.one_of(qutrit_states(3), qutrit_states(10**5)), min_size=1, max_size=4),
    )
)
def test_xi1_is_one_for_every_state(states):
    # the d^2 WH operators are an orthogonal basis, so the sum of
    # |<c|O|c>|^2 over them is d norm_sq^2 and Xi_1 = 1; alpha = 1 is the
    # power sum with no product, here beside alphas 2 and 3 of one call
    classes = mg.xi_classes(state_set(states), (1, 2, 3))
    assert classes[1][0] == (Fraction(1),) and classes[1][1].tolist() == [0] * len(states)
    for a in (2, 3):
        values, index = classes[a]
        assert [values[i] for i in index.tolist()] == [mg.xi_alpha(st, a) for st in states]


def test_eisenstein_batch_exact_past_int64_headroom():
    # N is about 2 * 10^10: 9 N^4 is past 2^63, so int64 sums would wrap
    st = vector_to_state((E(10**5, 0), E(0, 10**5 + 1), E(1, 1)))
    assert st.norm_sq == 2 * 10**10 + 2 * 10**5 + 2
    assert 9 * st.norm_sq**4 >= 2**63
    assert oracles.xi_batch_eisenstein(state_set([st])) == {2: [mg.xi_alpha(st, 2)]}


# The Xi_2 kernels run in float64 while their peak (4^n N^4 for qubits,
# 9 N^4 for a qutrit) is below 2^53.  Each kernel gets a state just below
# that edge, and a state past it whose float64 sums really round: the
# identity's term N^4 is odd and past 2^53, while the peak is far below
# 2^63, so an int64-sized threshold would take the float path and be wrong.
_FLOAT_EDGE = {
    "gaussian": (
        vector_to_state((G(82, 9), G(9, 1))),  # N = 6887
        vector_to_state((G(98, 11), G(3, 3))),  # N = 9743
    ),
    "eisenstein": (
        vector_to_state((E(86, 35), E(4, 1), E(0))),  # N = 5624
        vector_to_state((E(113, 44), E(3), E(1))),  # N = 9743
    ),
}


def _float64_xi2(st):
    """Xi_2 from the kernel's own pieces, forced into float64."""
    ring = st.ring
    x, y, norms = component_arrays(state_set([st]), lambda n: 0, np.float64)
    x, y = x.T.copy(), y.T.copy()  # component-major, as xi_classes lays out a block
    groups = mg._pauli_norms(x, y, st.dim.bit_length() - 1) if ring == "gaussian" else mg._displacement_norms(x, y)
    values, index = mg._xi_classes([(groups, norms)], st.dim, (2,))[2]
    return values[index[0]]


@pytest.mark.parametrize("ring", ["gaussian", "eisenstein"])
def test_batch_takes_float64_only_below_2_53(ring):
    below, past = _FLOAT_EDGE[ring]
    kernel, peak = (mg.xi_batch_gaussian, 4) if ring == "gaussian" else (oracles.xi_batch_eisenstein, 9)
    assert 2**53 * 1000 < peak * below.norm_sq**4 * 1001 < 2**53 * 1001  # within 0.1 % below
    assert past.norm_sq**4 > 2**53 and past.norm_sq % 2 and peak * past.norm_sq**4 < 2**63 // 64
    assert _float64_xi2(below) == mg.xi_alpha(below, 2)
    assert _float64_xi2(past) != mg.xi_alpha(past, 2)  # float64 rounds here
    for st in (below, past):
        assert kernel(state_set([st])) == {2: [mg.xi_alpha(st, 2)]}
    assert kernel(state_set([below, past])) == {2: [mg.xi_alpha(below, 2), mg.xi_alpha(past, 2)]}


_EDGE_SCRIPT = """
from magiclattice import magic as mg
from magiclattice.exact import EisensteinInt as E, GaussianInt as G
from oracles import state_set, vector_to_state, xi_batch_eisenstein
g = vector_to_state((G(98, 11), G(3, 3)))
e = vector_to_state((E(113, 44), E(3), E(1)))
print(mg.xi_batch_gaussian(state_set([g]))[2] == [mg.xi_alpha(g, 2)], xi_batch_eisenstein(state_set([e]))[2] == [mg.xi_alpha(e, 2)])
"""


def test_batch_float64_threshold_survives_optimize():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (Path(magiclattice.__file__).parents[1], TESTS))))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _EDGE_SCRIPT], capture_output=True, text=True, env=env, timeout=120, check=True
    )
    assert done.stdout == "True True\n"


@pytest.mark.parametrize("norm", [3, 6, 9, 12, 15])
def test_eisenstein_batch_matches_scalar_on_e6_shells(store, norm):
    ss = store.states("E6", norm)
    assert list(ss.xi2) == [mg.xi_alpha(st, 2) for st in ss.states]
    assert oracles.xi_batch_eisenstein(ss) == oracles.xi_batch_eisenstein(state_set(ss.states))
