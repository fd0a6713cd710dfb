from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from magiclattice.exact import (
    EISENSTEIN_UNITS,
    GAUSSIAN_UNITS,
    EisensteinInt,
    GaussianInt,
    OMEGA,
    THETA,
)
from oracles import (
    canonical_vector,
    exact_div,
    primitive_part,
    ray_reduce,
    ring_gcd,
    unit_canonicalize,
    vector_norm,
)

small = st.integers(min_value=-30, max_value=30)
gaussians = st.builds(GaussianInt, small, small)
eisensteins = st.builds(EisensteinInt, small, small)
ring_elements = st.one_of(gaussians, eisensteins)


def test_gaussian_basics():
    i = GaussianInt(0, 1)
    assert i * i == GaussianInt(-1)
    assert GaussianInt(2, 3) + GaussianInt(-1, 1) == GaussianInt(1, 4)
    assert GaussianInt(2, 3) * GaussianInt(2, -3) == GaussianInt(13)
    assert GaussianInt(2, 3).norm() == 13
    assert GaussianInt(2, 3).conjugate() == GaussianInt(2, -3)
    assert 3 * GaussianInt(1, 1) == GaussianInt(3, 3)
    assert -GaussianInt(1, -2) == GaussianInt(-1, 2)
    assert GaussianInt(0, 0).is_zero()


def test_eisenstein_basics():
    # omega^2 + omega + 1 = 0
    w2 = OMEGA * OMEGA
    assert w2 == EisensteinInt(-1, -1)
    assert w2 + OMEGA + EisensteinInt(1) == EisensteinInt(0)
    assert OMEGA * w2 == EisensteinInt(1)
    assert OMEGA.norm() == 1
    assert EisensteinInt(2, -1).norm() == 4 + 2 + 1


def test_theta_identities():
    # theta = 1 + 2 omega = i sqrt(3): norm 3, theta^2 = -3, conj = -theta
    assert THETA == EisensteinInt(1, 2)
    assert THETA.norm() == 3
    assert THETA * THETA == EisensteinInt(-3)
    assert THETA.conjugate() == -THETA


def test_unit_tables():
    assert len(GAUSSIAN_UNITS) == 4
    assert len(EISENSTEIN_UNITS) == 6
    assert all(u.norm() == 1 for u in GAUSSIAN_UNITS)
    assert all(u.norm() == 1 for u in EISENSTEIN_UNITS)
    # the six Eisenstein units are the powers of -omega^2 in some order
    seen = set()
    u = EisensteinInt(1)
    for _ in range(6):
        seen.add(u)
        u = u * EisensteinInt(1, 1)
    assert seen == set(EISENSTEIN_UNITS)


@given(st.one_of(st.tuples(gaussians, gaussians), st.tuples(eisensteins, eisensteins)))
def test_norm_multiplicative(pair):
    x, y = pair
    assert (x * y).norm() == x.norm() * y.norm()


@given(st.one_of(st.tuples(gaussians, gaussians), st.tuples(eisensteins, eisensteins)))
def test_conjugation_is_a_ring_map(pair):
    x, y = pair
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x + y).conjugate() == x.conjugate() + y.conjugate()
    assert x * x.conjugate() == type(x)(x.norm())


def test_unit_canonicalize_examples():
    i = GaussianInt(0, 1)
    one = GaussianInt(1)
    rotated, unit = unit_canonicalize((i, one))
    assert rotated == (one, GaussianInt(0, -1))
    assert unit == GaussianInt(0, -1)

    rotated, unit = unit_canonicalize((OMEGA, OMEGA, OMEGA))
    assert rotated == (EisensteinInt(1), EisensteinInt(1), EisensteinInt(1))
    assert unit == OMEGA * OMEGA

    rotated, unit = unit_canonicalize(
        (EisensteinInt(-1), EisensteinInt(0), EisensteinInt(1))
    )
    assert rotated == (EisensteinInt(1), EisensteinInt(0), EisensteinInt(-1))
    assert unit == EisensteinInt(-1)


def test_unit_canonicalize_zero_vector():
    with pytest.raises(ValueError):
        unit_canonicalize((GaussianInt(0), GaussianInt(0)))


@given(st.lists(eisensteins, min_size=1, max_size=4), st.sampled_from(range(6)))
def test_unit_canonicalize_constant_on_unit_orbit(comps, k):
    if all(c.is_zero() for c in comps):
        comps[0] = EisensteinInt(1)
    u = EISENSTEIN_UNITS[k]
    a, _ = unit_canonicalize(tuple(comps))
    b, _ = unit_canonicalize(tuple(u * c for c in comps))
    assert a == b


@given(st.lists(gaussians, min_size=1, max_size=4))
def test_unit_canonicalize_idempotent(comps):
    if all(c.is_zero() for c in comps):
        comps[0] = GaussianInt(1)
    once, _ = unit_canonicalize(tuple(comps))
    twice, unit = unit_canonicalize(once)
    assert twice == once and unit == GaussianInt(1)


def test_primitive_part_examples():
    zero = EisensteinInt(0)
    prim, content = primitive_part((3 * THETA, 3 * THETA, zero))
    # only the rational content comes out; theta stays
    assert prim == (THETA, THETA, zero)
    assert content == 3

    prim, content = primitive_part((GaussianInt(2, 4), GaussianInt(-6, 0)))
    assert prim == (GaussianInt(1, 2), GaussianInt(-3, 0))
    assert content == 2

    with pytest.raises(ValueError):
        primitive_part((zero, zero))


@given(st.lists(gaussians, min_size=1, max_size=4), st.integers(min_value=1, max_value=9))
def test_primitive_part_strips_content(comps, scale):
    if all(c.is_zero() for c in comps):
        comps[0] = GaussianInt(1, 1)
    scaled = tuple(scale * c for c in comps)
    prim, content = primitive_part(scaled)
    assert content % scale == 0 or primitive_part(tuple(comps))[1] * scale == content
    again, content2 = primitive_part(prim)
    assert content2 == 1 and again == prim


def test_canonical_vector_combines_both():
    comps = (2 * OMEGA, 2 * OMEGA)
    reduced, content, unit = canonical_vector(comps)
    assert reduced == (EisensteinInt(1), EisensteinInt(1))
    assert content == 2
    assert unit == OMEGA * OMEGA


@given(st.one_of(st.tuples(gaussians, gaussians), st.tuples(eisensteins, eisensteins)))
def test_ring_gcd_divides_both(pair):
    x, y = pair
    if x.is_zero() and y.is_zero():
        return
    g = ring_gcd(x, y)
    assert not g.is_zero()
    if not x.is_zero():
        exact_div(x, g)
    if not y.is_zero():
        exact_div(y, g)


@given(st.tuples(eisensteins, eisensteins))
def test_ring_gcd_symmetric_up_to_units(pair):
    x, y = pair
    if x.is_zero() and y.is_zero():
        return
    assert ring_gcd(x, y).norm() == ring_gcd(y, x).norm()


def test_exact_div():
    assert exact_div(EisensteinInt(-3), THETA) == THETA
    with pytest.raises(ValueError):
        exact_div(EisensteinInt(1), EisensteinInt(2))


def test_ray_reduce_divides_full_gcd():
    zero = EisensteinInt(0)
    # primitive_part leaves (theta, theta, 0) alone but the ray
    # representative divides theta out
    assert ray_reduce((THETA, THETA, zero)) == (EisensteinInt(1), EisensteinInt(1), zero)
    assert ray_reduce((3 * THETA, 3 * THETA, zero)) == ray_reduce((THETA, THETA, zero))
    with pytest.raises(ValueError):
        ray_reduce((zero, zero))


@given(st.lists(eisensteins, min_size=1, max_size=3), eisensteins)
def test_ray_reduce_scale_invariant(comps, z):
    if all(c.is_zero() for c in comps):
        comps[0] = EisensteinInt(2, 1)
    if z.is_zero():
        z = THETA
    assert ray_reduce(tuple(z * c for c in comps)) == ray_reduce(tuple(comps))


def test_vector_norm():
    assert vector_norm((GaussianInt(1, -1), GaussianInt(0, 2))) == 2 + 4
    assert vector_norm(()) == 0
    assert vector_norm((THETA, THETA, EisensteinInt(0))) == 6


def test_fraction_interplay():
    # exact rationals built from norms stay exact
    n = vector_norm((GaussianInt(1), GaussianInt(1, 1), GaussianInt(0, 1)))
    assert Fraction(1, n) == Fraction(1, 4)
