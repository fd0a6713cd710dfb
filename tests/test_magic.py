import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from magiclattice.exact import EisensteinInt, GaussianInt, OMEGA, THETA
from magiclattice.states import dedup, overlap_sq, real_to_complex, vector_to_state
from magiclattice import magic as mg

G = GaussianInt
E = EisensteinInt
W2 = OMEGA * OMEGA


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
    assert mg.WHDisplacement(3, 1, 0).matrix() == (
        (zero, one, zero), (zero, zero, one), (one, zero, zero)
    )
    assert mg.WHDisplacement(3, 0, 1).matrix() == (
        (one, zero, zero), (zero, OMEGA, zero), (zero, zero, W2)
    )
    assert mg.WHDisplacement(3, 1, 1).matrix() == (
        (zero, one, zero), (zero, zero, OMEGA), (W2, zero, zero)
    )
    assert mg.WHDisplacement(3, 1, 2).matrix() == (
        (zero, one, zero), (zero, zero, W2), (OMEGA, zero, zero)
    )


def test_qutrit_multiplication_law_all_81_pairs():
    # D_a D_b = tau^e D_{a+b} entrywise, tau = omega^2
    def matmul(a, b):
        return tuple(
            tuple(sum((a[i][k] * b[k][j] for k in range(3)), E(0)) for j in range(3))
            for i in range(3)
        )

    powers = (E(1), OMEGA, W2)
    ops = mg.wh_displacements(3)
    assert len(ops) == 9
    for a in ops:
        for b in ops:
            e = a.compose_phase_exponent(b)
            tau = powers[(2 * e) % 3]
            c = mg.WHDisplacement(3, (a.a1 + b.a1) % 3, (a.a2 + b.a2) % 3)
            rhs = tuple(tuple(z * tau for z in row) for row in c.matrix())
            assert matmul(a.matrix(), b.matrix()) == rhs, (a, b)


def test_apply_operator_matches_matrix():
    psi = vector_to_state((E(2, 1), E(-1, 0), E(0, -1)))
    for op in mg.wh_displacements(3):
        m = op.matrix()
        direct = tuple(
            sum((m[i][k] * psi.components[k] for k in range(3)), E(0)) for i in range(3)
        )
        assert mg._apply_components(op, psi) == direct


def test_apply_operator_qubits():
    # X on qubit 0 of |00> gives |10>
    st = qstate(1, 0, 0, 0)
    op = mg.PauliString(("X", "I"))
    moved = mg.apply_operator(op, st)
    assert moved.components == qstate(0, 0, 1, 0).components


# ---------------------------------------------------------------------------
# xi / classification


def test_xi_stabiliser_state():
    st00 = qstate(1, 0, 0, 0)
    assert mg.xi_alpha(st00, 2) == 1
    assert mg.xi_alpha(st00, 3) == 1
    assert mg.m_alpha(st00, 2) == 0.0


def test_xi_two_qubit_max_magic():
    st = vector_to_state(real_to_complex((0, 0, 0, 1, 0, 1, 1, 1)))
    assert mg.xi_alpha(st, 2) == Fraction(7, 16)
    assert mg.magic_label(Fraction(7, 16), 4, "gaussian") == mg.MAX_MAGIC_MUB
    rep = mg.classify(st)
    assert rep.label == mg.MAX_MAGIC_MUB
    assert math.isclose(mg.m_alpha(st, 2), -math.log2(7 / 16))


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
        total = sum(mg.expectation_sq(st, op) for op in mg.pauli_strings(2))
        assert total == st.dim


def test_xi_alpha_validates_alpha():
    with pytest.raises(ValueError):
        mg.xi_alpha(qstate(1, 0, 0, 0), 0)
    with pytest.raises(ValueError):
        mg.m_alpha(qstate(1, 0, 0, 0), 1)


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
    assert mg.wh_covariance_check(vector_to_state((THETA, THETA, E(0)))) is True
    assert mg.wh_covariance_check(vector_to_state((E(1), E(0), E(0)))) is False


def test_mub_orbit_check_both_modes():
    st = vector_to_state(real_to_complex((0, 0, 0, 1, 0, 1, 1, 1)))
    assert mg.mub_orbit_check(st) is True
    assert mg.mub_orbit_check(st, build_orbit=True) is True
    assert mg.mub_orbit_check(qstate(1, 0, 0, 0)) is False
    with pytest.raises(ValueError):
        mg.mub_orbit_check(qstate(1, 0))


def test_sic_check_single_qutrit_fiducial():
    ok, violations = mg.sic_check(vector_to_state((THETA, THETA, E(0))))
    assert ok and not violations


def test_sic_check_qutrit_orbit_is_nine_states():
    fid = vector_to_state((THETA, THETA, E(0)))
    orbit = []
    seen = set()
    for op in mg.wh_displacements(3):
        st = mg.apply_operator(op, fid)
        if st.components not in seen:
            seen.add(st.components)
            orbit.append(st)
    assert len(orbit) == 9
    assert all(
        overlap_sq(orbit[i], orbit[j]) == Fraction(1, 4)
        for i in range(9)
        for j in range(i + 1, 9)
    )
    ok, violations = mg.sic_check(orbit)
    assert ok, violations


def test_sic_check_rejects_basis_states():
    ok, violations = mg.sic_check([qstate(1, 0, 0, 0), qstate(0, 1, 0, 0)])
    assert not ok and violations


def test_sic_check_three_qubit_orbit(store):
    # the WH orbit of a BW16 fiducial has 64 states at overlap 1/9
    fid = store.states("BW16", 6).states[0]
    orbit = {}
    for op in mg.pauli_strings(3):
        st = mg.apply_operator(op, fid)
        orbit[st.components] = st
    assert len(orbit) == 64
    states = list(orbit.values())
    assert all(
        overlap_sq(states[i], states[j]) == Fraction(1, 9)
        for i in range(8)
        for j in range(i + 1, 8)
    )
    ok, violations = mg.sic_check(states)
    assert ok, violations


# ---------------------------------------------------------------------------
# batch path and censuses


def test_batch_matches_scalar(store):
    ss = store.states("E8", 2)
    by_alpha = mg.xi_batch_gaussian(ss.states, alphas=(2, 3))
    for st, x2, x3 in zip(ss.states, by_alpha[2], by_alpha[3]):
        assert x2 == mg.xi_alpha(st, 2)
        assert x3 == mg.xi_alpha(st, 3)


def test_batch_exact_past_int64_headroom():
    # N = 391876: 4^n N^(2 alpha) is far past 2^63, so int64 sums would wrap
    st = qstate(625, 25, 25, 1)
    assert st.norm_sq == 391876
    by_alpha = mg.xi_batch_gaussian([st], alphas=(2, 3))
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
    by_alpha = mg.xi_batch_gaussian(states, alphas=(2, 3))
    assert by_alpha[2] == [mg.xi_alpha(st, 2) for st in states]
    assert by_alpha[3] == [mg.xi_alpha(st, 3) for st in states]
    assert mg.wh_covariance_check_all(states) == all(mg.wh_covariance_check(st) for st in states)


def test_census_batch_equals_scalar(store):
    ss = store.states("E8", 4)
    batch = mg.sre_census(ss, use_batch=True)
    scalar = mg.sre_census(ss, use_batch=False)
    assert batch.histogram() == scalar.histogram()
    assert batch.histogram() == {Fraction(1): 60, Fraction(7, 16): 480}


def test_census_report_fields(store):
    rep = mg.sre_census(store.states("E6", 6))
    assert rep.lattice_name == "E6" and rep.norm == 6
    assert rep.multiplicity == 6
    assert rep.vector_count == 270
    assert rep.histogram() == {Fraction(1, 2): 45}
    assert rep.class_histogram() == {mg.MAX_MAGIC_SIC: 45}
    # rows are sorted by xi2 descending
    rep9 = mg.sre_census(store.states("E6", 9))
    assert [r.xi2 for r in rep9.rows] == [Fraction(1), Fraction(49, 81)]


def test_wh_covariance_check_all_both_rings(store):
    # eisenstein states go through the scalar path inside the batch helper
    assert mg.wh_covariance_check_all(store.states("E6", 6).states) is True
    # stabiliser states are not SIC fiducials
    assert mg.wh_covariance_check_all(store.states("E8", 2).states) is False
