import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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
    vector_norm,
)
from magiclattice.lattices import Shell, build_lattice
from magiclattice.states import (
    dedup,
    export_csv,
    export_json,
    overlap_sq,
    real_to_complex,
    vector_to_state,
)

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
    assert ss.uniform_multiplicity == mult
    assert ss.vector_count == store.shell(name, norm).count


def test_dedup_groups_unit_multiples(store):
    ss = store.states("E8", 2)
    # every state's provenance lists exactly the unit-orbit of vectors
    for st in ss.states:
        assert len(st.provenance) == 4
    # states are distinct as component tuples
    assert len({st.components for st in ss.states}) == ss.count


def test_state_ids_are_stable(store):
    ss = store.states("E6", 3)
    assert ss.state_id(0) == "E6-l3-00000"
    assert ss.state_id(11) == "E6-l3-00011"


def test_exports(store):
    ss = store.states("E6", 3)
    fh = io.StringIO()
    export_csv(ss, fh)
    lines = fh.getvalue().strip().splitlines()
    assert len(lines) == 1 + ss.count
    assert lines[0].startswith("state_id")

    blob = json.loads(export_json(ss))
    assert blob["lattice"] == "E6" and blob["norm"] == 3
    assert len(blob["states"]) == 12


_MIXED_MULTIPLICITY_SCRIPT = """
import numpy as np
from magiclattice.states import StateSet
# the states |0> and |1>: the first absorbs vectors 0 and 1, the second vector 2
components = np.array([[[1, 0], [0, 0]], [[0, 0], [1, 0]]])
try:
    StateSet("E8", 2, "gaussian", components, np.array([1, 1]), np.array([0, 0, 1])).uniform_multiplicity
except ValueError:
    print("rejected")
"""


def test_mixed_multiplicity_raises_under_optimize():
    env = dict(os.environ, PYTHONPATH=str(Path(magiclattice.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _MIXED_MULTIPLICITY_SCRIPT],
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

    groups = {}
    for index, v in enumerate(vectors):
        groups.setdefault(canonical_vector(v)[0], []).append(index)
    expected = sorted(
        (tuple(c.coords() for c in comps), vector_norm(comps), tuple(members))
        for comps, members in groups.items()
    )
    def fields(states):
        return [(tuple(c.coords() for c in s.components), s.norm_sq, s.provenance) for s in states]

    assert fields(state_set.states) == expected
    assert fields(state_set[i] for i in range(state_set.count)) == expected
    assert state_set.uniform_multiplicity == len(units)
