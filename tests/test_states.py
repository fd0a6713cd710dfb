import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import magiclattice

from magiclattice.exact import EisensteinInt, GaussianInt, THETA
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
from magiclattice.exact import GaussianInt
from magiclattice.states import StateSet, vector_to_state
a = vector_to_state((GaussianInt(1), GaussianInt(0)), provenance=(0, 1))
b = vector_to_state((GaussianInt(0), GaussianInt(1)), provenance=(2,))
try:
    StateSet("E8", 2, "gaussian", (a, b)).uniform_multiplicity
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
