import importlib.util
import sys
from pathlib import Path

import pytest

from magiclattice.lattices import build_lattice, ensure_shell
from magiclattice.states import dedup
from oracles import unit_orbits


class ShellStore:
    """Session-wide memoized access to shells and state sets.

    Everything is enumerated into a throwaway cache directory so the test
    run never depends on (or pollutes) the user's cache.
    """

    def __init__(self, cache_dir):
        self.cache_dir = cache_dir
        self._shells = {}
        self._state_sets = {}
        self._orbits = {}

    def shell(self, name, norm):
        key = (name, norm)
        if key not in self._shells:
            lattice = build_lattice(name)
            self._shells[key] = ensure_shell(lattice, norm, cache_dir=self.cache_dir)
        return self._shells[key]

    def states(self, name, norm):
        key = (name, norm)
        if key not in self._state_sets:
            self._state_sets[key] = dedup(self.shell(name, norm))
        return self._state_sets[key]

    def orbits(self, name, norm):
        """unit_orbits of the shell: the scalar oracle of its states."""
        key = (name, norm)
        if key not in self._orbits:
            self._orbits[key] = unit_orbits(self.shell(name, norm))
        return self._orbits[key]


@pytest.fixture(scope="session")
def store(tmp_path_factory):
    return ShellStore(tmp_path_factory.mktemp("shellcache"))


def _perfbench_module(stem, monkeypatch):
    """perfbench/<stem>.py, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{stem}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def traced(monkeypatch):
    """perfbench/traced.py, loaded as a module."""
    return _perfbench_module("traced", monkeypatch)


@pytest.fixture
def bench_run(monkeypatch):
    """perfbench/run.py, loaded as a module."""
    return _perfbench_module("run", monkeypatch)
