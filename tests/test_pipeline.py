import contextlib
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from magiclattice import cli, lattices, pipeline
from magiclattice.exact import EISENSTEIN_UNITS, GAUSSIAN_UNITS
from magiclattice.magic import sre_census, xi_alpha
from magiclattice.states import EmptyShellError, canonical_states, component_arrays, dedup, vector_states

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


def test_census_of_no_state_sets_or_of_two_shells_raises(store):
    with pytest.raises(EmptyShellError, match="no StateSets"):
        pipeline.census_stage([])
    with pytest.raises(ValueError, match="one shell"):
        pipeline.census_stage([store.states("E8", 2), store.states("E8", 4)])


def _traced_peak(run):
    """run()'s result and the peak of its traced allocations."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("norm", [8, pytest.param(10, marks=pytest.mark.heavy)])
def test_streamed_bw16_census_holds_only_its_live_frontier(norm):
    # a suspended search holds its int32 frontier and tree, and neither
    # the stream nor the census a finished chunk, so the traced peak stays
    # flat as the shell grows (12.3 MiB at l=8 and 13.4 at l=10 when dead
    # level temporaries and the previous chunk were kept alive, 6.9 and
    # 7.5 with an int64 frontier and 8,192-node chunks)
    result, peak = _traced_peak(lambda: pipeline.census_stage(pipeline.search_rows("BW16", norm)))
    assert result.ok and result.shell.theta.ok
    assert peak < 5 * 2**20


def test_kept_shell_states_hold_each_array_once():
    # each chunk's states keep their components in int8 and the narrow
    # parts are joined, and dropped, before the key sort, so the int64
    # components exist once, widened in sorted order (4.3 MiB when the
    # joined int64 components and their sorted copy, 1.9 MiB each, lived
    # together)
    states, peak = _traced_peak(lambda: pipeline.shell_states("BW16", 6))
    assert states.count == 15_360
    assert peak < 5 * 2**20


def test_canonical_states_holds_no_finished_chunk_while_the_stream_searches():
    # on resume, before the search for the next chunk runs, the consumer
    # must have dropped the chunk it was handed
    held = []

    def watched(chunks):
        for chunk in chunks:
            ref = weakref.ref(chunk)
            yield chunk
            del chunk
            held.append(ref() is not None)

    states = canonical_states(watched(lattices.stream_shell(lattices.build_lattice("BW16"), 6)))
    assert states.count == 15_360
    assert len(held) > 1 and not any(held)


def test_entangle_stage_holds_each_array_once():
    # the kernel writes its blocks into arrays allocated once and the
    # classes are int8 codes, formed in kernel blocks (3.9 MiB with string
    # label arrays over every state and the kernel's blocks joined)
    state_sets = {norm: pipeline.shell_states("BW16", norm) for norm in (4, 6)}
    for state_set in state_sets.values():
        state_set.xi2_classes
    result, peak = _traced_peak(lambda: pipeline.entangle_stage(lambda name, norm: state_sets[norm]))
    assert all(ok for ok, _ in result.checks())
    assert peak < 3 * 2**20


def test_reproduce_traced_peak():
    # the kept shells' states and the entanglement census (6.4 MiB when
    # each held its big arrays twice)
    code, peak = _traced_peak(lambda: cli.main(["reproduce"]))
    assert code == 0
    assert peak < 5.5 * 2**20


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_entangle_bw16_traced_peak(fmt):
    # the profiles of 16,440 states reach stdout KERNEL_BLOCK_STATES rows
    # at a time (9.3 MiB for csv when each census's display floats became
    # one nested list, 45.3 MiB for json built whole)
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code, peak = _traced_peak(lambda: cli.main(["entangle", "--lattice", "BW16", "--format", fmt]))
    assert code == 0
    assert peak < 7.5 * 2**20


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
    assert peak_mib < 64


@pytest.mark.parametrize("name, norm, limit", [("E8", 2, 60), ("BW16", 4, 1080), ("E6", 3, 12)])
def test_census_limit_is_the_stabiliser_count_of_the_register(name, norm, limit):
    # n qudits of the ring's dimension d, d**n the lattice's complex
    # dimension: 2 qubits, 3 qubits and 1 qutrit; every state of these
    # shells is a stabiliser state, so the shell reaches the limit
    result = pipeline.census_stage(pipeline.search_rows(name, norm))
    assert result.stabiliser_limit == limit == result.histogram["1"] and result.ok


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
