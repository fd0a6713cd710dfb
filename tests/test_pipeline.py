import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from magiclattice import lattices, pipeline
from magiclattice.exact import EISENSTEIN_UNITS, GAUSSIAN_UNITS
from magiclattice.magic import sre_census
from magiclattice.states import dedup, representatives

_PAPER_SHELLS = [("E8", n) for n in (2, 4, 6, 8)] + [("BW16", n) for n in (4, 6)] + [
    ("E6", n) for n in (3, 6, 9, 12, 15)
]
_BEYOND_PAPER = [("E8", n) for n in (10, 12, 14, 16)] + [("E6", n) for n in (18, 21, 24, 27, 30)]


def _lexicographic(components):
    flat = components.reshape(len(components), -1)
    return np.lexsort(flat.T[::-1])


def _streamed_equals_materialised(name, norm, cache_dir, oracle):
    units = len(GAUSSIAN_UNITS if oracle.ring == "gaussian" else EISENSTEIN_UNITS)
    for cached in (False, True):  # the streamed search, then the one loaded chunk
        if cached:
            lattices.ensure_shell(lattices.build_lattice(name), norm, cache_dir)
        batches = list(pipeline.streamed_batches(name, norm, cache_dir))
        if cached:
            ((chunk, _),) = batches  # the file ensure_shell wrote, loaded and sorted
            assert np.array_equal(np.lexsort(chunk.coeffs.T[::-1]), np.arange(chunk.count))
        else:
            assert os.listdir(cache_dir) == []  # the stream wrote no cache file
            if oracle.count >= 100:
                assert len(batches) > 1  # the search is cut into chunks
        # one state per row, each row standing for |units| vectors
        for chunk, states in batches:
            assert states.count == chunk.count and chunk.vectors == chunk.count * units
        result = pipeline.census_stage(iter(batches))
        assert result.report == sre_census(oracle)
        assert result.shell.count == oracle.count * units and result.shell.theta.ok
        # each state has exactly one representative over all the chunks
        reps = np.concatenate([states.components for _, states in batches])
        order = _lexicographic(reps)  # dedup's order
        assert np.array_equal(reps[order], oracle.components)
        assert np.array_equal(np.concatenate([states.norm_sq for _, states in batches])[order], oracle.norm_sq)


@pytest.mark.parametrize("name,norm", _PAPER_SHELLS + _BEYOND_PAPER)
def test_streamed_census_equals_materialised_census(store, tmp_path, monkeypatch, name, norm):
    # 64 children per chunk, so unit orbits straddle chunks
    monkeypatch.setattr(lattices, "CHUNK_NODES", 64)
    _streamed_equals_materialised(name, norm, tmp_path, store.states(name, norm))


@pytest.mark.heavy
@pytest.mark.parametrize("norm", [8, 10])
def test_streamed_census_equals_materialised_census_bw16(tmp_path, norm):
    shell = lattices.enumerate_shell(lattices.build_lattice("BW16"), norm)
    assert shell.count == lattices.shell_size(shell.lattice, norm)
    oracle = dedup(shell)
    del shell
    _streamed_equals_materialised("BW16", norm, tmp_path, oracle)


def test_census_of_a_state_set_is_its_sre_census(store):
    shell, states = store.shell("E8", 8), store.states("E8", 8)
    result = pipeline.census_stage([(shell, states)])
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


def test_census_fails_a_shell_that_is_not_unit_closed(store):
    shell, states = store.shell("E8", 2), store.states("E8", 2)
    orbit = np.array(store.orbits("E8", 2)[states[0].components])  # the 4 vectors of state 0
    assert len(orbit) == 4
    still_60 = 0
    for lost in [*orbit, orbit]:  # one vector of the orbit, or all four
        keep = np.setdiff1d(np.arange(shell.count), lost)
        chunk = lattices.Shell(shell.lattice, 2, shell.coeffs[keep], shell.rows[keep])
        result = pipeline.census_stage([(chunk, representatives(lattices.search_members(chunk)))])
        report = result.report
        assert (report.vector_count == report.state_count * 4) == (np.size(lost) == 4)
        # the theta series fails the shell, the census fails too
        assert [ok for ok, _ in result.checks()] == [False, False]
        still_60 += result.histogram == {"1": 60}
    # losing a vector that is not its state's representative leaves the
    # histogram as it was; only the vector count catches it
    assert still_60 == 3
