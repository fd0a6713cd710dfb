import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import magiclattice

from magiclattice.exact import (
    EISENSTEIN_UNITS,
    GAUSSIAN_UNITS,
    EisensteinInt,
    GaussianInt,
    THETA,
    canonical_vector,
    ray_reduce,
    vector_norm,
)
from magiclattice.lattices import HeadroomError, Shell, build_lattice
from magiclattice import states
from magiclattice.states import dedup, ray_keys, representatives, vector_to_state
from oracles import overlap_sq, real_to_complex

G = GaussianInt


def test_real_to_complex_pairing():
    # coordinate 2k is the real part, 2k+1 ... no: halves pair head/tail
    v = real_to_complex((1, -1, 0, 0, 0, 0, 0, 0))
    assert v == (G(1), G(-1), G(0), G(0))
    v = real_to_complex((1, 0, 0, 0, 0, 0, 0, 1))
    assert v == (G(1), G(0), G(0), G(0, 1))


def test_vector_to_state_canonicalizes():
    st = vector_to_state((G(0, 2), G(0, 2)))
    # content 2 divided out, then rotated into the canonical sector
    assert st.components == (G(1), G(1))
    assert st.norm_sq == 2
    assert st.ring == "gaussian"
    assert st.dim == 2


def test_state_norm_examples():
    s = vector_to_state(real_to_complex((0, 0, 0, 1, 0, 1, 1, 1)))
    assert s.norm_sq == 4
    s6 = vector_to_state((THETA, THETA, EisensteinInt(0)))
    assert s6.norm_sq == 6 and s6.ring == "eisenstein"


def test_overlap_sq():
    s1 = vector_to_state(real_to_complex((1, -1, 0, 0, 0, 0, 0, 0)))
    s2 = vector_to_state(real_to_complex((1, 0, 0, 0, 0, 0, 0, 1)))
    assert overlap_sq(s1, s2) == Fraction(1, 4)
    assert overlap_sq(s1, s1) == 1
    with pytest.raises(ValueError):
        overlap_sq(s1, vector_to_state((G(1), G(0))))


@pytest.mark.parametrize(
    "name,norm,states,mult",
    [
        ("E8", 2, 60, 4),
        ("E8", 4, 540, 4),
        ("E6", 3, 12, 6),
        ("E6", 6, 45, 6),
    ],
)
def test_dedup_counts(store, name, norm, states, mult):
    ss = store.states(name, norm)
    assert ss.count == states
    # each state is the canonical vector of mult shell vectors, and of no others
    orbits = store.orbits(name, norm)
    assert set(orbits) == {st.components for st in ss.states}
    assert {len(members) for members in orbits.values()} == {mult}
    assert ss.count * mult == store.shell(name, norm).count


def test_dedup_groups_unit_multiples(store):
    ss = store.states("E8", 2)
    shell = store.shell("E8", 2)
    vectors = [real_to_complex(row) for row in shell.rows.tolist()]
    # the vectors that reduce to a state are exactly the unit multiples of one of them
    for members in store.orbits("E8", 2).values():
        first = vectors[members[0]]
        assert len(members) == 4
        assert {tuple(u * c for c in first) for u in GAUSSIAN_UNITS} == {vectors[i] for i in members}
    # states are distinct as component tuples, one per unit orbit
    assert {st.components for st in ss.states} == set(store.orbits("E8", 2))
    assert len({st.components for st in ss.states}) == ss.count


def test_state_ids_are_stable(store):
    ss = store.states("E6", 3)
    assert ss.state_id(0) == "E6-l3-00000"
    assert ss.state_id(11) == "E6-l3-00011"


_MISSING_VECTOR_SCRIPT = """
from magiclattice.lattices import Shell, build_lattice, enumerate_shell
from magiclattice.states import dedup
shell = enumerate_shell(build_lattice("E8"), 2)
# one vector fewer: 239 vectors cannot be 4 per state
try:
    dedup(Shell(shell.lattice, 2, shell.coeffs[1:], shell.rows[1:]))
except AssertionError as exc:
    print("rejected" if "not closed under the units" in str(exc) else exc)
"""


def test_dedup_of_a_shell_missing_a_vector_raises_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(Path(magiclattice.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _MISSING_VECTOR_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert done.stdout == "rejected\n"


def ring_vectors(cls, dim):
    coord = hs.one_of(hs.just(0), hs.integers(-4, 4))
    comps = hs.lists(hs.tuples(coord, coord), min_size=dim, max_size=dim)
    return comps.filter(lambda v: any(a or b for a, b in v)).map(lambda v: tuple(cls(*z) for z in v))


@settings(max_examples=80, deadline=None)
@given(name=hs.sampled_from(["E8", "BW16", "E6"]), data=hs.data())
def test_dedup_matches_scalar_canonical_vector(name, data):
    lattice = build_lattice(name)
    gaussian = lattice.ring == "gaussian"
    cls, units = (GaussianInt, GAUSSIAN_UNITS) if gaussian else (EisensteinInt, EISENSTEIN_UNITS)
    seeds = data.draw(
        hs.lists(hs.tuples(ring_vectors(cls, lattice.complex_dim), hs.integers(1, 3)), min_size=1, max_size=6)
    )
    # every unit multiple of each seed, times a content: the first nonzero
    # component lands once in every quadrant or sextant, and each state
    # absorbs exactly the unit multiples of one seed
    vectors, seen = [], set()
    for seed, content in seeds:
        key = canonical_vector(seed)[0]
        if key not in seen:
            seen.add(key)
            vectors += [tuple(u * c * content for c in seed) for u in units]
    vectors = data.draw(hs.permutations(vectors))
    if gaussian:  # c_k = x_k + i*x_{D+k}
        rows = [[c.re for c in v] + [c.im for c in v] for v in vectors]
    else:
        rows = [[x for c in v for x in c.coords()] for v in vectors]
    coeffs = np.zeros((len(rows), lattice.coeff_dim), dtype=np.int64)
    state_set = dedup(Shell(lattice, 1, coeffs, np.array(rows, dtype=np.int64)))

    canonical = {canonical_vector(v)[0] for v in vectors}
    expected = sorted((tuple(c.coords() for c in comps), vector_norm(comps)) for comps in canonical)

    def fields(states):
        return [(tuple(c.coords() for c in s.components), s.norm_sq) for s in states]

    assert fields(state_set.states) == expected
    assert fields(state_set[i] for i in range(state_set.count)) == expected
    assert state_set.count * len(units) == len(vectors)


@settings(max_examples=80, deadline=None)
@given(name=hs.sampled_from(["E8", "BW16", "E6"]), block=hs.integers(1, 5), data=hs.data())
def test_representatives_rotate_each_row_to_its_canonical_state(name, block, data):
    # one state per row, in row order, whichever unit multiple the row is;
    # blocks of 1 to 5 rows put block edges between the rows
    lattice = build_lattice(name)
    gaussian = lattice.ring == "gaussian"
    cls = GaussianInt if gaussian else EisensteinInt
    vectors = data.draw(hs.lists(ring_vectors(cls, lattice.complex_dim), min_size=1, max_size=12))
    if gaussian:
        rows = [[c.re for c in v] + [c.im for c in v] for v in vectors]
    else:
        rows = [[x for c in v for x in c.coords()] for v in vectors]
    chunk = Shell(lattice, 1, np.zeros((len(rows), lattice.coeff_dim), dtype=np.int64), np.array(rows, dtype=np.int64), 4)
    with mock.patch.object(states, "SECTOR_ROWS", block):
        found = representatives(chunk)
    assert [s.components for s in found.states] == [canonical_vector(v)[0] for v in vectors]
    assert found.norm_sq.tolist() == [vector_norm(canonical_vector(v)[0]) for v in vectors]


def _coords(vectors):
    return np.array([[z.coords() for z in v] for v in vectors], dtype=np.int64)


@settings(max_examples=150, deadline=None)
@given(
    cls=hs.sampled_from([GaussianInt, EisensteinInt]),
    dim=hs.integers(1, 4),
    data=hs.data(),
)
def test_ray_keys_are_equal_iff_ray_reduce_is(cls, dim, data):
    # lambda * c for a nonzero ring lambda lies on the ray of c; an
    # unrelated vector usually does not, and when it does the keys agree
    c, d = data.draw(ring_vectors(cls, dim)), data.draw(ring_vectors(cls, dim))
    lam = data.draw(hs.builds(cls, hs.integers(-9, 9), hs.integers(-9, 9)).filter(lambda z: not z.is_zero()))
    pairs = [(c, tuple(lam * z for z in c)), (c, d), (tuple(lam * z for z in d), c)]
    ring = "gaussian" if cls is GaussianInt else "eisenstein"
    for x, y in pairs:
        kx, ky = ray_keys(_coords([x, y]), ring).tolist()
        assert (kx == ky) == (ray_reduce(x) == ray_reduce(y))


def test_ray_keys_examples_and_headroom():
    E = EisensteinInt
    # theta * (1, 1, 0) and (1, 1, 0) span one ray; primitive_part keeps them apart
    keys = ray_keys(_coords([(THETA, THETA, E(0)), (E(1), E(1), E(0)), (E(1), E(0), E(0))]), "eisenstein")
    assert keys.tolist()[0] == keys.tolist()[1] == [[1, 0], [1, 0], [0, 0]]
    assert keys.tolist()[2] == [[1, 0], [0, 0], [0, 0]]
    # (1 + i) * (1, i) against (1, i): one Gaussian ray, key (1, i) * conj(1)
    keys = ray_keys(_coords([(G(1, 1), G(-1, 1)), (G(1), G(0, 1))]), "gaussian")
    assert keys.tolist() == [[[1, 0], [0, 1]]] * 2
    # exact up to the bound: (2^30 - 1, 1) times 2^30 - 1, over the content 2^30 - 1
    assert ray_keys(_coords([(G(2**30 - 1), G(1))]), "gaussian").tolist() == [[[2**30 - 1, 0], [1, 0]]]
    with pytest.raises(HeadroomError):
        ray_keys(_coords([(G(2**30), G(1))]), "gaussian")


_PAPER_SHELLS = [("E8", n) for n in (2, 4, 6, 8)] + [("BW16", n) for n in (4, 6)] + [
    ("E6", n) for n in (3, 6, 9, 12, 15)
]


@pytest.mark.parametrize(
    "name,norm", _PAPER_SHELLS + [pytest.param("BW16", 8, marks=pytest.mark.heavy, id="BW16-8")]
)
def test_dedup_is_the_sorted_scalar_canonical_vectors(store, name, norm):
    # the scalar canonical_vector of every vector of the shell, as a sorted
    # set, is the oracle of dedup's components and norm_sq
    expected = sorted((tuple(c.coords() for c in comps), vector_norm(comps)) for comps in store.orbits(name, norm))
    ss = store.states(name, norm)
    assert [tuple(map(tuple, comps)) for comps in ss.components.tolist()] == [comps for comps, _ in expected]
    assert ss.norm_sq.tolist() == [n for _, n in expected]
