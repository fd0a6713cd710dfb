"""What a process imports: the package namespace loads each submodule on
first use, so the benchmark's set-up code and the census load only the
modules they run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import magiclattice

SRC = Path(magiclattice.__file__).parents[1]
PRINT_LOADED = "\nprint(*sorted(m for m in sys.modules if m.split('.')[0] == 'magiclattice'))\n"
CENSUS = (
    "import contextlib, io, sys\nfrom magiclattice import cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n    code = cli.main(sys.argv[1:])\nprint(code)\n"
)


def _loaded(code: str, *args: str) -> list[str]:
    """The stdout lines of a fresh interpreter that runs code and then
    prints, as its last line, the magiclattice modules it has loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", code + PRINT_LOADED, *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    return done.stdout.splitlines()


def test_benchmark_setup_loads_only_the_lattices(bench_run):
    *_, loaded = _loaded(bench_run.SETUP_CODE, "E8", "BW16", "E6")
    assert loaded.split() == ["magiclattice", "magiclattice.exact", "magiclattice.lattices"]


def test_census_loads_neither_clifford_nor_entangle():
    *_, code, loaded = _loaded(CENSUS, "census", "--lattice", "BW16", "--norms", "4", "--format", "json")
    assert code == "0"
    assert {"magiclattice.magic", "magiclattice.pipeline"} <= set(loaded.split())
    assert not {"magiclattice.clifford", "magiclattice.entangle"} & set(loaded.split())


def test_every_public_name_resolves_and_is_listed():
    listed = dir(magiclattice)
    for name in magiclattice.__all__:
        assert getattr(magiclattice, name) is not None and name in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        magiclattice.no_such_name
