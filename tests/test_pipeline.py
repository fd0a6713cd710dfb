import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from magiclattice import lattices, pipeline
from magiclattice.exact import EISENSTEIN_UNITS, GAUSSIAN_UNITS
from magiclattice.magic import sre_census, xi_alpha
from magiclattice.states import component_arrays, dedup, vector_states

_PAPER_SHELLS = [("E8", n) for n in (2, 4, 6, 8)] + [("BW16", n) for n in (4, 6)] + [
    ("E6", n) for n in (3, 6, 9, 12, 15)
]
_BEYOND_PAPER = [("E8", n) for n in (10, 12, 14, 16)] + [("E6", n) for n in (18, 21, 24, 27, 30)]


def _streamed_equals_materialised(name, norm, oracle):
    units = len(GAUSSIAN_UNITS if oracle.ring == "gaussian" else EISENSTEIN_UNITS)
    rows = list(pipeline.search_rows(name, norm))
    if oracle.count >= 100:
        assert len(rows) > 1  # the search is cut into chunks
    # one row per state, each standing for |units| vectors
    result = pipeline.census_stage(iter(rows))
    assert result.report == sre_census(oracle)
    assert result.shell.count == oracle.count * units and result.shell.theta.ok
    # each state has exactly one representative over all the chunks, in dedup's order
    states = pipeline.shell_states(name, norm)
    assert np.array_equal(states.components, oracle.components)
    assert np.array_equal(states.norm_sq, oracle.norm_sq)


@pytest.mark.parametrize("name,norm", _PAPER_SHELLS + _BEYOND_PAPER)
def test_streamed_census_equals_materialised_census(store, monkeypatch, name, norm):
    # 64 children per chunk, so unit orbits straddle chunks
    monkeypatch.setattr(lattices, "CHUNK_NODES", 64)
    _streamed_equals_materialised(name, norm, store.states(name, norm))


@pytest.mark.heavy
@pytest.mark.parametrize("norm", [8, 10])
def test_streamed_census_equals_materialised_census_bw16(norm):
    shell = lattices.enumerate_shell(lattices.build_lattice("BW16"), norm)
    assert shell.count == lattices.shell_size(shell.lattice, norm)
    oracle = dedup(shell)
    del shell
    _streamed_equals_materialised("BW16", norm, oracle)


def test_census_of_a_state_set_is_its_sre_census(store):
    states = store.states("E8", 8)
    result = pipeline.census_stage([states])
    assert result.report == sre_census(states)
    assert result.ok and result.shell.count == 17520


_PEAK_RSS_SCRIPT = """
import resource, subprocess, sys
subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


@pytest.mark.heavy
def test_bw16_l8_census_peak_rss(tmp_path):
    # the census streams the shell: 522,720 vectors, but never all at once;
    # a wrapper process measures the census process alone
    argv = [sys.executable, "-m", "magiclattice.cli", "census", "--lattice", "BW16", "--norms", "8"]
    argv += ["--format", "json", "--cache-dir", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=str(Path(pipeline.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_SCRIPT, *argv], env=env, capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    peak_mib = int(done.stdout) / 1024  # ru_maxrss is in KiB on Linux
    assert peak_mib < 150


def test_census_fails_a_shell_that_is_not_unit_closed():
    # a stream missing one orbit: the theta series fails the shell, and
    # the census, one stabiliser short, fails too
    rows = list(pipeline.search_rows("E8", 2))
    assert sum(len(chunk) for chunk in rows) == 60
    rows[0] = rows[0][1:]
    result = pipeline.census_stage(rows)
    assert result.shell.count == 236 and result.histogram == {"1": 59}
    assert [ok for ok, _ in result.checks()] == [False, False]
    # a whole shell missing one vector is refused by dedup, whose raise
    # python -O keeps (test_states.py runs it under -O)
    shell = lattices.enumerate_shell(lattices.build_lattice("E8"), 2)
    with pytest.raises(AssertionError, match="not closed under the units"):
        dedup(lattices.Shell(shell.lattice, 2, shell.coeffs[1:], shell.rows[1:]))


def test_raw_search_rows_past_the_float64_bound_take_the_exact_path():
    # BW16 l=4's search rows times 30 are lattice vectors of raw norm_sq
    # 14,400, where the float64 bound 64 * N^4 < 2^53 of xi_classes fails
    # (it holds for N < 3,444); a unit or a scalar leaves Xi_2 unchanged
    lattice = lattices.build_lattice("BW16")
    for chunk in lattices.stream_shell(lattice, 4):
        rows = vector_states(chunk)
        scaled = vector_states(lattices.Shell(lattice, 4 * 30**2, chunk.coeffs * 30, chunk.rows * 30, chunk.multiplicity))
        assert set(scaled.norm_sq.tolist()) == {14_400}
        x, y, norms = component_arrays(scaled, lambda nn: 64 * nn**4, np.float64)
        assert x.dtype == y.dtype == norms.dtype == object
        xi2 = scaled.xi2
        assert xi2 == rows.xi2
        assert list(xi2) == [xi_alpha(scaled[i], 2) for i in range(len(scaled))]
