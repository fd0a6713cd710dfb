import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import magiclattice
from magiclattice.exact import GaussianInt
from magiclattice.states import vector_to_state
from magiclattice import entangle as en
from magiclattice import magic as mg

G = GaussianInt


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
    purity = [en.reduced_density(state, [q]).purity() * n2 for q in range(3)]
    c1, c2 = [], []
    for pair in PAIRS:
        num = [list(row) for row in en.reduced_density(state, pair).num]
        tilde = en._rho_tilde_num(num)
        m = [
            [sum((num[a][t] * tilde[t][b] for t in range(4)), G(0)) for b in range(4)]
            for a in range(4)
        ]
        coeffs = en._char_poly_descending(m)
        c1.append(coeffs[0])
        c2.append(coeffs[1])
    return purity, c1, c2


def kernel_invariants(k, s):
    return (
        [int(v) for v in k.purity[s]],
        [int(v) for v in k.c1[s]],
        [int(v) for v in k.c2[s]],
    )


# ---------------------------------------------------------------------------
# reduced density matrices


def test_reduced_density_product_state():
    rho = en.reduced_density(qstate(1, 0, 0, 0), [0])
    assert rho.num == ((G(1), G(0)), (G(0), G(0)))
    assert rho.den == 1
    assert rho.purity() == 1


def test_reduced_density_bell_half():
    rho = en.reduced_density(qstate(1, 0, 0, 1), [0])
    assert rho.num == ((G(1), G(0)), (G(0), G(1)))
    assert rho.den == 2
    assert rho.purity() == Fraction(1, 2)
    rho.validate_psd()


def test_reduced_density_ghz_pair():
    rho = en.reduced_density(GHZ, [1, 2])
    assert rho.den == 2
    assert [rho.num[i][i] for i in range(4)] == [G(1), G(0), G(0), G(1)]
    rho.validate_psd()


def test_reduced_density_keep_validation():
    with pytest.raises(ValueError):
        en.reduced_density(GHZ, [])
    with pytest.raises(ValueError):
        en.reduced_density(GHZ, [0, 1, 2])  # nothing left to trace
    with pytest.raises(ValueError):
        en.reduced_density(GHZ, [3])


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        en.DensityMatrixExact(num=((G(1), G(1)), (G(0), G(1))), den=2)  # not hermitian
    with pytest.raises(ValueError):
        en.DensityMatrixExact(num=((G(1), G(0)), (G(0), G(2))), den=2)  # trace != den
    bad = en.DensityMatrixExact(num=((G(1), G(2)), (G(2), G(1))), den=2)
    with pytest.raises(ValueError):
        bad.validate_psd()


# ---------------------------------------------------------------------------
# polynomial root helper


# the argument lists the coefficients after the implied leading 1


def test_real_roots_simple():
    # (x - 1)(x - 2) = x^2 - 3x + 2
    assert en._real_roots_with_multiplicity((-3, 2)) == [2.0, 1.0]


def test_real_roots_with_zero_and_double_root():
    # x (x - 1)^2: the zero root must come out exactly
    roots = en._real_roots_with_multiplicity((-2, 1, 0))
    assert roots == [1.0, 1.0, 0.0]


def test_real_roots_all_zero():
    assert en._real_roots_with_multiplicity((0, 0, 0, 0)) == [0.0, 0.0, 0.0, 0.0]


def test_real_roots_irrational():
    roots = en._real_roots_with_multiplicity((0, -2))
    assert len(roots) == 2
    assert abs(roots[0] - math.sqrt(2)) < 1e-12
    assert abs(roots[1] + math.sqrt(2)) < 1e-12


def test_real_roots_integer_snap():
    # integer roots come back exact, not within-epsilon
    assert en._real_roots_with_multiplicity((-7, 12)) == [4.0, 3.0]


def test_real_roots_rejects_complex_pairs():
    with pytest.raises(en.ConcurrenceRootError):
        en._real_roots_with_multiplicity((0, 1))  # x^2 + 1


# ---------------------------------------------------------------------------
# concurrence measures


def test_one_to_other():
    value, sq = en.one_to_other_concurrence(GHZ, 0)
    assert sq == 1 and value == 1.0
    value, sq = en.one_to_other_concurrence(PRODUCT, 2)
    assert sq == 0 and value == 0.0
    value, sq = en.one_to_other_concurrence(W, 0)
    assert sq == Fraction(8, 9)


def test_pairwise_concurrence_examples():
    for i, j in ((0, 1), (0, 2), (1, 2)):
        assert abs(en.pairwise_concurrence(GHZ, i, j)) <= 1e-12
    assert abs(en.pairwise_concurrence(ZERO_BELL, 1, 2) - 1.0) <= 1e-12
    assert abs(en.pairwise_concurrence(ZERO_BELL, 0, 1)) <= 1e-12
    # W state pairs at 2/3
    assert abs(en.pairwise_concurrence(W, 0, 1) - 2 / 3) <= 1e-12


def test_rank2_path_matches_quartic_on_fixtures():
    fixtures = [GHZ, ZERO_BELL, PRODUCT, W]
    k = en.concurrence_kernel(fixtures)
    pairwise, _, _ = en._display_columns(k)
    for s, st in enumerate(fixtures):
        assert oracle_invariants(st) == kernel_invariants(k, s)
        for col, (i, j) in enumerate(PAIRS):
            assert abs(en.pairwise_concurrence(st, i, j) - pairwise[s, col]) <= 1e-10
    assert en._labels(k, [mg.STABILISER] * 4) == [
        en.CLASS_III,
        en.CLASS_II,
        en.CLASS_I,
        en.UNCLASSIFIED,
    ]


def test_rank2_path_matches_quartic_on_lattice_states(store):
    states = store.states("BW16", 6).states[::997]
    pairwise, _, _ = en._display_columns(en.concurrence_kernel(states))
    for s, st in enumerate(states):
        for col, (i, j) in enumerate(PAIRS):
            assert abs(en.pairwise_concurrence(st, i, j) - pairwise[s, col]) <= 1e-10


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
    k = en.concurrence_kernel(states)
    pairwise, one_to_other, f3_values = en._display_columns(k)
    for s, st in enumerate(states):
        assert kernel_invariants(k, s) == oracle_invariants(st)
        for col, (i, j) in enumerate(PAIRS):
            assert abs(pairwise[s, col] - en.pairwise_concurrence(st, i, j)) <= 1e-10
        profile = en.classify_entanglement(st, mg.INTERMEDIATE)
        for q in range(3):
            value, sq = en.one_to_other_concurrence(st, q)
            assert profile.one_to_other_sq[q] == sq
            assert one_to_other[s, q] == value
        value, sq = en.f3(st)
        assert profile.f3_sq == sq and f3_values[s] == value
        assert profile.pairwise == tuple(pairwise[s])


_HEADROOM_SCRIPT = """
import json
from magiclattice import GaussianInt, concurrence_kernel, vector_to_state, xi_batch_gaussian
two = vector_to_state(tuple(GaussianInt(v) for v in (625, 25, 25, 1)))
xi = xi_batch_gaussian([two], alphas=(2, 3))
large = vector_to_state(tuple(GaussianInt(*z) for z in json.loads(input())))
k = concurrence_kernel([large])
print(json.dumps([str(xi[2][0]), str(xi[3][0])] + [[int(v) for v in a[0]] for a in (k.purity, k.c1, k.c2)]))
"""


def test_headroom_guards_survive_optimize():
    # both int64 headroom guards must still hold when -O strips asserts
    env = dict(os.environ, PYTHONPATH=str(Path(magiclattice.__file__).parents[1]))
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
    value, sq = en.pairwise_concurrence_2qubit(qstate(1, 0, 0, 1))
    assert value == 1.0 and sq == 1
    value, sq = en.pairwise_concurrence_2qubit(qstate(0, 1, 0, 0))
    assert value == 0.0 and sq == 0
    value, sq = en.pairwise_concurrence_2qubit(qstate(1, 1, 1, (1, -1)))
    # 4 |c0 c3 - c1 c2|^2 / N^2 = 4 |(1-i) - 1|^2 / 25
    assert sq == Fraction(4, 25)


def test_wootters_on_werner_states():
    # p |Bell><Bell| + (1-p) I/4 has concurrence max(0, (3p-1)/2)
    # p = 1/2, den 8
    num = (
        (G(3), G(0), G(0), G(2)),
        (G(0), G(1), G(0), G(0)),
        (G(0), G(0), G(1), G(0)),
        (G(2), G(0), G(0), G(3)),
    )
    rho = en.DensityMatrixExact(num=num, den=8)
    assert abs(en.wootters_concurrence(rho) - 0.25) <= 1e-10

    # p = 1/4 sits below the entanglement threshold
    num = (
        (G(5), G(0), G(0), G(2)),
        (G(0), G(3), G(0), G(0)),
        (G(0), G(0), G(3), G(0)),
        (G(2), G(0), G(0), G(5)),
    )
    rho = en.DensityMatrixExact(num=num, den=16)
    assert en.wootters_concurrence(rho) == 0.0


def test_wootters_matches_pure_formula_on_random_states():
    rng = random.Random(20260822)
    worst = 0.0
    for _ in range(1000):
        comps = tuple(G(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(4))
        if all(z.is_zero() for z in comps):
            comps = (G(1), G(0), G(0), G(0))
        st = vector_to_state(comps)
        pure_value, _ = en.pairwise_concurrence_2qubit(st)
        num = tuple(
            tuple(st.components[a] * st.components[b].conjugate() for b in range(4))
            for a in range(4)
        )
        rho = en.DensityMatrixExact(num=num, den=st.norm_sq)
        worst = max(worst, abs(en.wootters_concurrence(rho) - pure_value))
    assert worst <= 1e-10, worst


# ---------------------------------------------------------------------------
# f3 and classification


def test_f3_examples():
    value, sq = en.f3(GHZ)
    assert sq == 1 and value == 1.0
    value, sq = en.f3(PRODUCT)
    assert sq == 0 and value == 0.0
    # W state: equilateral with squared sides 8/9
    value, sq = en.f3(W)
    assert sq == Fraction(64, 81)


def test_classification_fixtures():
    assert en.classify_entanglement(PRODUCT, mg.STABILISER).label == en.CLASS_I
    assert en.classify_entanglement(ZERO_BELL, mg.STABILISER).label == en.CLASS_II
    assert en.classify_entanglement(GHZ, mg.STABILISER).label == en.CLASS_III
    # W is neither a stabiliser class nor a max magic class
    assert en.classify_entanglement(W, mg.STABILISER).label == en.UNCLASSIFIED
    assert en.classify_entanglement(W, mg.MAX_MAGIC_SIC).label == en.UNCLASSIFIED


def test_class_ii_checks_complementary_pair():
    prof = en.classify_entanglement(ZERO_BELL, mg.STABILISER)
    assert prof.one_to_other_sq == (Fraction(0), Fraction(1), Fraction(1))
    assert abs(prof.pairwise[2] - 1.0) <= 1e-12


def test_max_magic_profile_values(store):
    ss = store.states("BW16", 6)
    xi2 = mg.xi_batch_gaussian(ss.states[:50], alphas=(2,))[2]
    for st, xi in zip(ss.states[:50], xi2):
        assert xi == Fraction(2, 9)
        prof = en.classify_entanglement(st, mg.MAX_MAGIC_SIC)
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

    a = en.classify_entanglement(st, mg.MAX_MAGIC_SIC)
    for perm in ((1, 0, 2), (2, 0, 1), (2, 1, 0)):
        b = en.classify_entanglement(permute(st, perm), mg.MAX_MAGIC_SIC)
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
    assert census4.histogram() == {"I": 216, "II": 432, "III": 432}


def test_entanglement_census_rejects_wrong_dim(store):
    with pytest.raises(ValueError):
        en.entanglement_census(store.states("E8", 2))
