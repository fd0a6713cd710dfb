import dataclasses
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import magiclattice
import oracles
from magiclattice.exact import GaussianInt
from oracles import vector_to_state
from magiclattice import entangle as en
from magiclattice import magic as mg

G = GaussianInt
TESTS = Path(__file__).resolve().parent


def qstate(*vals):
    return vector_to_state(tuple(G(v) if isinstance(v, int) else G(*v) for v in vals))


GHZ = qstate(1, 0, 0, 0, 0, 0, 0, 1)
W = qstate(0, 1, 1, 0, 1, 0, 0, 0)
ZERO_BELL = qstate(1, 0, 0, 1, 0, 0, 0, 0)  # |0> (x) Bell pair on the last two
PRODUCT = qstate(1, 0, 0, 0, 0, 0, 0, 0)

PAIRS = ((0, 1), (0, 2), (1, 2))

# norm_sq 5,988,423: far past the kernel's int64 bound, and c2 itself
# exceeds 2**63, so int64 arithmetic would wrap
LARGE = qstate(
    (1000, 7), (-3, 999), (2, -5), (998, 1), (11, 13), (-997, 2), (5, 1001), (0, -999)
)


def oracle_invariants(state):
    """Kernel quantities from the exact density-matrix oracles: purity
    numerators P_i and the characteristic coefficients c1, c2 of
    num * num_tilde for the pairs AB, AC, BC."""
    n2 = state.norm_sq**2
    purity = [oracles.reduced_density(state, [q]).purity() * n2 for q in range(3)]
    coeffs = [oracles.characteristic_coefficients(oracles.reduced_density(state, pair).num) for pair in PAIRS]
    return purity, [c[0] for c in coeffs], [c[1] for c in coeffs]


def kernel_invariants(k, s):
    return (
        [int(v) for v in k.purity[s]],
        [int(v) for v in k.c1[s]],
        [int(v) for v in k.c2[s]],
    )


# ---------------------------------------------------------------------------
# reduced density matrices


def test_reduced_density_product_state():
    rho = oracles.reduced_density(qstate(1, 0, 0, 0), [0])
    assert rho.num == ((G(1), G(0)), (G(0), G(0)))
    assert rho.den == 1
    assert rho.purity() == 1


def test_reduced_density_bell_half():
    rho = oracles.reduced_density(qstate(1, 0, 0, 1), [0])
    assert rho.num == ((G(1), G(0)), (G(0), G(1)))
    assert rho.den == 2
    assert rho.purity() == Fraction(1, 2)
    rho.validate_psd()


def test_reduced_density_ghz_pair():
    rho = oracles.reduced_density(GHZ, [1, 2])
    assert rho.den == 2
    assert [rho.num[i][i] for i in range(4)] == [G(1), G(0), G(0), G(1)]
    rho.validate_psd()


def test_reduced_density_keep_validation():
    with pytest.raises(ValueError):
        oracles.reduced_density(GHZ, [])
    with pytest.raises(ValueError):
        oracles.reduced_density(GHZ, [0, 1, 2])  # nothing left to trace
    with pytest.raises(ValueError):
        oracles.reduced_density(GHZ, [3])


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        oracles.DensityMatrixExact(num=((G(1), G(1)), (G(0), G(1))), den=2)  # not hermitian
    with pytest.raises(ValueError):
        oracles.DensityMatrixExact(num=((G(1), G(0)), (G(0), G(2))), den=2)  # trace != den
    bad = oracles.DensityMatrixExact(num=((G(1), G(2)), (G(2), G(1))), den=2)
    with pytest.raises(ValueError):
        bad.validate_psd()


# ---------------------------------------------------------------------------
# polynomial root helper


# the argument lists the coefficients after the implied leading 1


def test_real_roots_simple():
    # (x - 1)(x - 2) = x^2 - 3x + 2
    assert oracles._real_roots_with_multiplicity((-3, 2)) == [2.0, 1.0]


def test_real_roots_with_zero_and_double_root():
    # x (x - 1)^2: the zero root must come out exactly
    roots = oracles._real_roots_with_multiplicity((-2, 1, 0))
    assert roots == [1.0, 1.0, 0.0]


def test_real_roots_all_zero():
    assert oracles._real_roots_with_multiplicity((0, 0, 0, 0)) == [0.0, 0.0, 0.0, 0.0]


def test_real_roots_irrational():
    roots = oracles._real_roots_with_multiplicity((0, -2))
    assert len(roots) == 2
    assert abs(roots[0] - math.sqrt(2)) < 1e-12
    assert abs(roots[1] + math.sqrt(2)) < 1e-12


def test_real_roots_integer_snap():
    # integer roots come back exact, not within-epsilon
    assert oracles._real_roots_with_multiplicity((-7, 12)) == [4.0, 3.0]


def test_real_roots_rejects_complex_pairs():
    with pytest.raises(oracles.ConcurrenceRootError):
        oracles._real_roots_with_multiplicity((0, 1))  # x^2 + 1


# ---------------------------------------------------------------------------
# concurrence measures


def test_one_to_other():
    value, sq = oracles.one_to_other_concurrence(GHZ, 0)
    assert sq == 1 and value == 1.0
    value, sq = oracles.one_to_other_concurrence(PRODUCT, 2)
    assert sq == 0 and value == 0.0
    value, sq = oracles.one_to_other_concurrence(W, 0)
    assert sq == Fraction(8, 9)


def test_pairwise_concurrence_examples():
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert abs(oracles.pairwise_concurrence(GHZ, i, j)) <= 1e-12
    assert abs(oracles.pairwise_concurrence(ZERO_BELL, 1, 2) - 1.0) <= 1e-12
    assert abs(oracles.pairwise_concurrence(ZERO_BELL, 0, 1)) <= 1e-12
    # W state pairs at 2/3
    assert abs(oracles.pairwise_concurrence(W, 0, 1) - 2 / 3) <= 1e-12


def test_rank2_path_matches_quartic_on_fixtures():
    fixtures = [GHZ, ZERO_BELL, PRODUCT, W]
    k = en.concurrence_kernel(oracles.state_set(fixtures))
    pairwise = en._display_columns(k)[:, :3]
    for s, st in enumerate(fixtures):
        assert oracle_invariants(st) == kernel_invariants(k, s)
        for col, (i, j) in enumerate(PAIRS):
            assert abs(oracles.pairwise_concurrence(st, i, j) - pairwise[s, col]) <= 1e-10
    codes = en._class_codes(k, np.ones(4, bool), np.zeros(4, bool))
    expected = [en.CLASS_III, en.CLASS_II, en.CLASS_I, en.UNCLASSIFIED]
    assert [en.CLASSES[c] for c in codes] == expected == oracles.class_labels(k, [mg.STABILISER] * 4)


def test_rank2_path_matches_quartic_on_lattice_states(store):
    states = store.states("BW16", 6)[::997]
    pairwise = en._display_columns(en.concurrence_kernel(states))[:, :3]
    for s, st in enumerate(states):
        for col, (i, j) in enumerate(PAIRS):
            assert abs(oracles.pairwise_concurrence(st, i, j) - pairwise[s, col]) <= 1e-10


def test_kernel_of_no_states_gives_empty_arrays(store):
    # a search chunk may hold no rows (BW16 l=10 has some), so no states
    # give empty arrays, and only states of another register raise
    k = en.concurrence_kernel(store.states("BW16", 6)[:0])
    assert [a.shape for a in (k.norm_sq, k.purity, k.c1, k.c2, k.heron)] == [(0,), (0, 3), (0, 3), (0, 3), (0,)]
    assert en._display_columns(k).shape == (0, 7)
    assert en._class_codes(k, np.zeros(0, bool), np.zeros(0, bool)).shape == (0,)
    num, den = en.pairwise_concurrence_2qubit(store.states("E8", 4)[:0])
    assert (num.shape, den.shape, num.dtype) == ((0,), (0,), np.int64)
    for name, norm in (("E8", 4), ("E6", 3)):
        with pytest.raises(ValueError, match="expects 3-qubit states"):
            en.concurrence_kernel(store.states(name, norm)[:0])


def three_qubit_states(bound):
    component = hs.tuples(hs.integers(-bound, bound), hs.integers(-bound, bound))
    vectors = hs.lists(component, min_size=8, max_size=8).filter(lambda v: any(a or b for a, b in v))
    return vectors.map(lambda v: vector_to_state(tuple(G(*z) for z in v)))


@settings(max_examples=60, deadline=None)
@given(
    hs.lists(three_qubit_states(5), min_size=1, max_size=5),
    hs.lists(three_qubit_states(3000), max_size=2),
)
def test_kernel_matches_oracles_on_random_states(small, large):
    # any large state moves the whole batch past int64 into Python ints
    states = small + large
    k = en.concurrence_kernel(oracles.state_set(states))
    display = en._display_columns(k)
    pairwise, one_to_other, f3_values = display[:, :3], display[:, 3:6], display[:, 6]
    for s, st in enumerate(states):
        assert kernel_invariants(k, s) == oracle_invariants(st)
        for col, (i, j) in enumerate(PAIRS):
            assert abs(pairwise[s, col] - oracles.pairwise_concurrence(st, i, j)) <= 1e-10
        profile = oracles.classify_entanglement(st, mg.INTERMEDIATE)
        for q in range(3):
            value, sq = oracles.one_to_other_concurrence(st, q)
            assert profile.one_to_other_sq[q] == sq
            assert one_to_other[s, q] == value
        value, sq = oracles.f3(st)
        assert profile.f3_sq == sq and f3_values[s] == value
        assert profile.pairwise == tuple(pairwise[s])


_HEADROOM_SCRIPT = """
import json
from magiclattice import GaussianInt, concurrence_kernel, xi_batch_gaussian
from oracles import state_set, vector_to_state
two = vector_to_state(tuple(GaussianInt(v) for v in (625, 25, 25, 1)))
xi = xi_batch_gaussian(state_set([two]), alphas=(2, 3))
large = vector_to_state(tuple(GaussianInt(*z) for z in json.loads(input())))
k = concurrence_kernel(state_set([large]))
print(json.dumps([str(xi[2][0]), str(xi[3][0])] + [[int(v) for v in a[0]] for a in (k.purity, k.c1, k.c2)]))
"""


def test_headroom_guards_survive_optimize():
    # both int64 headroom guards must still hold when -O strips asserts
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (Path(magiclattice.__file__).parents[1], TESTS))))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _HEADROOM_SCRIPT],
        input=json.dumps([z.coords() for z in LARGE.components]),
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    two = qstate(625, 25, 25, 1)
    expected = [str(mg.xi_alpha(two, 2)), str(mg.xi_alpha(two, 3))]
    expected += [list(v) for v in oracle_invariants(LARGE)]
    assert json.loads(done.stdout) == expected


def test_two_qubit_pure_concurrence():
    states = [qstate(1, 0, 0, 1), qstate(0, 1, 0, 0), qstate(1, 1, 1, (1, -1))]
    num, den = en.pairwise_concurrence_2qubit(oracles.state_set(states))
    # 4 |c0 c3 - c1 c2|^2 / N^2 = 4 |(1-i) - 1|^2 / 25 for the third
    assert list(map(Fraction, num.tolist(), den.tolist())) == [1, 0, Fraction(4, 25)]
    assert [oracles.pure_concurrence_2qubit(st) for st in states] == [(1.0, 1), (0.0, 0), (0.4, Fraction(4, 25))]
    with pytest.raises(ValueError, match="expects 2-qubit states"):
        en.pairwise_concurrence_2qubit(oracles.state_set([GHZ]))


def assert_two_qubit_kernel_matches_the_oracles(states):
    # the array C^2 is the per-state formula, and 4|c0 c3 - c1 c2|^2 is
    # 2(N^2 - P_A) with P_A = N^2 Tr rho_A^2 from the exact reduction
    num, den = en.pairwise_concurrence_2qubit(oracles.state_set(states))
    for st, n, d in zip(states, num.tolist(), den.tolist()):
        assert Fraction(n, d) == oracles.pure_concurrence_2qubit(st)[1]
        n2 = st.norm_sq**2
        assert d == n2 and n == 2 * (n2 - oracles.reduced_density(st, [0]).purity() * n2)


def test_two_qubit_kernel_matches_the_oracles_on_e8_l4(store):
    assert_two_qubit_kernel_matches_the_oracles(store.states("E8", 4).states)


def two_qubit_states(bound):
    component = hs.tuples(hs.integers(-bound, bound), hs.integers(-bound, bound))
    vectors = hs.lists(component, min_size=4, max_size=4).filter(lambda v: any(a or b for a, b in v))
    return vectors.map(lambda v: vector_to_state(tuple(G(*z) for z in v)))


@settings(max_examples=60, deadline=None)
@given(hs.lists(two_qubit_states(5), min_size=1, max_size=5), hs.lists(two_qubit_states(2**33), max_size=2))
def test_two_qubit_kernel_matches_the_oracles_on_random_states(small, large):
    # a coordinate near 2**33 puts N^2 past int64, and the batch into Python ints
    assert_two_qubit_kernel_matches_the_oracles(small + large)


def test_wootters_on_werner_states():
    # p |Bell><Bell| + (1-p) I/4 has concurrence max(0, (3p-1)/2)
    # p = 1/2, den 8
    num = (
        (G(3), G(0), G(0), G(2)),
        (G(0), G(1), G(0), G(0)),
        (G(0), G(0), G(1), G(0)),
        (G(2), G(0), G(0), G(3)),
    )
    rho = oracles.DensityMatrixExact(num=num, den=8)
    assert abs(oracles.wootters_concurrence(rho) - 0.25) <= 1e-10

    # p = 1/4 sits below the entanglement threshold
    num = (
        (G(5), G(0), G(0), G(2)),
        (G(0), G(3), G(0), G(0)),
        (G(0), G(0), G(3), G(0)),
        (G(2), G(0), G(0), G(5)),
    )
    rho = oracles.DensityMatrixExact(num=num, den=16)
    assert oracles.wootters_concurrence(rho) == 0.0


def test_wootters_matches_pure_formula_on_random_states():
    worst = oracles.wootters_gap(random.Random(20260822), 5)
    assert worst <= 1e-10, worst


# ---------------------------------------------------------------------------
# f3 and classification


def test_f3_examples():
    value, sq = oracles.f3(GHZ)
    assert sq == 1 and value == 1.0
    value, sq = oracles.f3(PRODUCT)
    assert sq == 0 and value == 0.0
    # W state: equilateral with squared sides 8/9
    value, sq = oracles.f3(W)
    assert sq == Fraction(64, 81)


def test_classification_fixtures():
    assert oracles.classify_entanglement(PRODUCT, mg.STABILISER).label == en.CLASS_I
    assert oracles.classify_entanglement(ZERO_BELL, mg.STABILISER).label == en.CLASS_II
    assert oracles.classify_entanglement(GHZ, mg.STABILISER).label == en.CLASS_III
    # W is neither a stabiliser class nor a max magic class
    assert oracles.classify_entanglement(W, mg.STABILISER).label == en.UNCLASSIFIED
    assert oracles.classify_entanglement(W, mg.MAX_MAGIC_SIC).label == en.UNCLASSIFIED


def test_class_ii_checks_complementary_pair():
    prof = oracles.classify_entanglement(ZERO_BELL, mg.STABILISER)
    assert prof.one_to_other_sq == (Fraction(0), Fraction(1), Fraction(1))
    assert abs(prof.pairwise[2] - 1.0) <= 1e-12


def test_max_magic_profile_values(store):
    ss = store.states("BW16", 6)
    xi2 = mg.xi_batch_gaussian(ss[:50], alphas=(2,))[2]
    for st, xi in zip(ss.states[:50], xi2):
        assert xi == Fraction(2, 9)
        prof = oracles.classify_entanglement(st, mg.MAX_MAGIC_SIC)
        assert prof.label in (en.CLASS_A, en.CLASS_B)
        assert prof.one_to_other_sq == (Fraction(2, 3),) * 3
        assert prof.f3_sq == Fraction(4, 9)


def test_classification_permutation_invariant(store):
    st = store.states("BW16", 6).states[7]

    def permute(s, perm):
        comps = [None] * 8
        for idx in range(8):
            bits = [(idx >> (2 - q)) & 1 for q in range(3)]
            new_idx = sum(bits[perm[q]] << (2 - q) for q in range(3))
            comps[new_idx] = s.components[idx]
        return vector_to_state(tuple(comps))

    a = oracles.classify_entanglement(st, mg.MAX_MAGIC_SIC)
    for perm in ((1, 0, 2), (2, 0, 1), (2, 1, 0)):
        b = oracles.classify_entanglement(permute(st, perm), mg.MAX_MAGIC_SIC)
        assert sorted(a.one_to_other_sq) == sorted(b.one_to_other_sq)
        assert sorted(round(x, 12) for x in a.pairwise) == sorted(
            round(x, 12) for x in b.pairwise
        )
        assert abs(a.f3 - b.f3) < 1e-12
        assert a.label == b.label


def test_entanglement_census_small_slice(store):
    census4 = en.entanglement_census(store.states("BW16", 4))
    assert census4.stabiliser_classes == {"I": 216, "II": 432, "III": 432}
    assert census4.magic_classes == {}
    assert census4.other == 0
    assert oracles.entanglement_histogram(census4) == {"I": 216, "II": 432, "III": 432}


def test_entanglement_census_rejects_wrong_dim(store):
    with pytest.raises(ValueError):
        en.entanglement_census(store.states("E8", 2))


def test_entanglement_census_labels_each_xi2_value_once(store, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return mg.magic_label(*args)

    monkeypatch.setattr(en, "magic_label", counted)
    ss = store.states("BW16", 4)
    census = en.entanglement_census(ss)
    assert len(calls) == len(set(ss.xi2)) == 1
    assert census.stabiliser_classes == {en.CLASS_I: 216, en.CLASS_II: 432, en.CLASS_III: 432}


def _kernel_fields(k):
    return [getattr(k, name).tolist() for name in ("norm_sq", "purity", "c1", "c2", "heron")]


@pytest.mark.parametrize("count", [15360, 5000, 1])
def test_blocked_kernel_equals_one_block(store, monkeypatch, count):
    # 15,360 is BW16 l=6 whole (7.5 blocks of 2048), 5000 = 2 * 2048 + 904
    states = store.states("BW16", 6)[:count]
    blocked = _kernel_fields(en.concurrence_kernel(states))
    monkeypatch.setattr(en, "KERNEL_BLOCK_STATES", count)
    assert blocked == _kernel_fields(en.concurrence_kernel(states))


@settings(max_examples=40, deadline=None)
@given(hs.lists(three_qubit_states(5), min_size=1, max_size=5))
def test_pair_purities_equal_the_single_qubit_reductions(states):
    # the kernel reads P_i off the pair that leaves qubit i out; the
    # oracle reduces to qubit i itself, in int64 here and, with LARGE in
    # the block, in Python ints
    for block in (states, states + [LARGE]):
        state_set = oracles.state_set(block)
        purity = en.concurrence_kernel(state_set).purity
        assert purity.dtype == (object if block[-1] is LARGE else np.int64)
        assert purity.tolist() == oracles.single_qubit_purities(state_set).tolist()


def assert_kernel_equals_the_matmul_oracle(state_set):
    k, oracle = en.concurrence_kernel(state_set), oracles.matmul_concurrence_arrays(state_set)
    assert _kernel_fields(k) == _kernel_fields(oracle)
    return k


@pytest.mark.parametrize("norm", [4, 6])
def test_kernel_equals_the_matmul_oracle_on_bw16(store, norm):
    assert_kernel_equals_the_matmul_oracle(store.states("BW16", norm))


@settings(max_examples=40, deadline=None)
@given(hs.lists(three_qubit_states(5), min_size=1, max_size=5))
def test_kernel_equals_the_matmul_oracle_on_random_states(states):
    # the closed forms against the reduced numerators and their products,
    # in int64 and, with LARGE in the block, in Python ints
    for block in (states, states + [LARGE]):
        k = assert_kernel_equals_the_matmul_oracle(oracles.state_set(block))
        assert k.c2.dtype == (object if block[-1] is LARGE else np.int64)


def assert_c2_is_the_squared_hyperdeterminant(states):
    # c2 is one value for the three pairs, in the kernel and in the
    # oracle's three separate reductions, and it is |Det|^2
    k = en.concurrence_kernel(oracles.state_set(states))
    oracle = oracles.matmul_concurrence_arrays(oracles.state_set(states))
    for st, c2, oracle_c2 in zip(states, k.c2.tolist(), oracle.c2.tolist()):
        assert c2 == oracle_c2 == [oracles.cayley_hyperdeterminant(st).norm()] * 3
    return k


@settings(max_examples=60, deadline=None)
@given(hs.lists(three_qubit_states(5), min_size=1, max_size=5), hs.booleans())
def test_c2_is_the_squared_hyperdeterminant_on_random_states(states, large):
    assert_c2_is_the_squared_hyperdeterminant(states + [LARGE] if large else states)


# H x H x H of GHZ and of W, unnormalised: (1, 1) and (1, -1) for |0> and |1>
GHZ_X = qstate(1, 0, 0, 1, 0, 1, 1, 0)
W_X = qstate(3, 1, 1, -1, 1, -1, -1, -3)


def test_ghz_states_have_unit_three_tangle():
    # tau_3 = 4 sqrt(c2) / N^2 = 1: c2 = 1 at N = 2 and 16 at N = 4
    k = assert_c2_is_the_squared_hyperdeterminant([GHZ, GHZ_X])
    assert k.c2.tolist() == [[1] * 3, [16] * 3] and k.norm_sq.tolist() == [2, 4]


def test_w_states_have_zero_three_tangle():
    k = assert_c2_is_the_squared_hyperdeterminant([W, W_X])
    assert k.c2.tolist() == [[0] * 3] * 2 and k.norm_sq.tolist() == [3, 24]


def test_kernel_is_exact_at_its_int64_edge():
    # a GHZ-like state with N = 5,618, near the largest N the int64 tier
    # takes (5,624): its fields equal the oracle's Python ints, and the
    # display divisions of 4*heron by 3N^4 round as those of the Python
    # ints do
    edge = qstate(73, 0, 0, 0, 0, 0, 0, 17)
    assert 2**62 < en._kernel_peak(edge.norm_sq) < 2**63
    k = assert_kernel_equals_the_matmul_oracle(oracles.state_set([edge]))
    assert k.c2.dtype == np.int64
    wide = en.ConcurrenceArrays(*(getattr(k, f.name).astype(object) for f in dataclasses.fields(k)))
    assert en._display_columns(k).tolist() == en._display_columns(wide).tolist()


def test_blocked_kernel_mixes_int64_and_python_int_blocks(monkeypatch):
    # blocks of two: the first pair in int64, the second past its bound
    states = oracles.state_set([GHZ, W, ZERO_BELL, LARGE, PRODUCT])
    one = _kernel_fields(en.concurrence_kernel(states))
    monkeypatch.setattr(en, "KERNEL_BLOCK_STATES", 2)
    assert _kernel_fields(en.concurrence_kernel(states)) == one


def test_census_builds_display_columns_on_first_read(store, monkeypatch):
    calls = []

    def counted(k):
        calls.append(k)
        return display(k)

    display = en._display_columns
    monkeypatch.setattr(en, "_display_columns", counted)
    census = en.entanglement_census(store.states("BW16", 4))
    assert calls == [] and len(census.labels) == 1080
    assert census.display.shape == (1080, 7) and census.display[0, :3].tolist() == [0.0, 0.0, 0.0]
    assert len(calls) == 1


def _magic_flags(magic):
    return np.array([m == mg.STABILISER for m in magic], bool), np.array([m == mg.MAX_MAGIC_SIC for m in magic], bool)


@pytest.mark.parametrize("norm", [4, 6])
def test_class_codes_equal_the_string_oracle_on_bw16(store, norm):
    # BW16 l=6 holds classes A and B, l=4 I, II and III, over several
    # KERNEL_BLOCK_STATES blocks
    states = store.states("BW16", norm)
    k = en.concurrence_kernel(states)
    values, index = states.xi2_classes
    magic = [mg.magic_label(xi, 8, "gaussian") for xi in values]
    expected = oracles.class_labels(k, [magic[i] for i in index.tolist()])
    codes = en._class_codes(k, *_magic_flags([magic[i] for i in index.tolist()]))
    assert codes.dtype == np.int8 and [en.CLASSES[c] for c in codes.tolist()] == expected
    census = en.entanglement_census(states)
    assert list(census.labels) == expected
    assert oracles.entanglement_histogram(census) == {c: expected.count(c) for c in set(expected)}


@settings(max_examples=60, deadline=None)
@given(
    hs.lists(
        hs.tuples(three_qubit_states(5), hs.sampled_from([mg.STABILISER, mg.MAX_MAGIC_SIC, mg.INTERMEDIATE])),
        min_size=1,
        max_size=6,
    ),
    hs.booleans(),
)
def test_class_codes_equal_the_string_oracle_on_random_states(drawn, large):
    # fixtures that meet each class's identities among the drawn states;
    # LARGE moves the whole batch into Python ints
    drawn = drawn + [(st, mg.STABILISER) for st in (GHZ, ZERO_BELL, PRODUCT, W)]
    if large:
        drawn.append((LARGE, mg.MAX_MAGIC_SIC))
    states, magic = zip(*drawn)
    k = en.concurrence_kernel(oracles.state_set(states))
    assert k.purity.dtype == (object if large else np.int64)
    codes = en._class_codes(k, *_magic_flags(magic))
    assert [en.CLASSES[c] for c in codes.tolist()] == oracles.class_labels(k, magic)
