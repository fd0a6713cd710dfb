import errno
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import magiclattice
from magiclattice.exact import EisensteinInt
from magiclattice.lattices import (
    EnumerationBudgetExceeded,
    Shell,
    ShellCacheError,
    build_lattice,
    coordinate_bounds,
    enumerate_shell,
    ensure_shell,
    load_shell,
    naive_box_enumerate,
    save_shell,
    shell_cache_path,
    solve_eisenstein_coefficients,
    theta_check,
)


def test_build_lattice_specs():
    e8 = build_lattice("E8")
    assert e8.ring == "gaussian" and e8.real_dim == 8 and e8.scale == 2
    assert e8.known_counts[2] == 240

    bw = build_lattice("bw16")  # case-insensitive
    assert bw.name == "BW16" and bw.real_dim == 16 and bw.complex_dim == 8

    e6 = build_lattice("E6")
    assert e6.ring == "eisenstein" and e6.coeff_dim == 6 and e6.scale == 1

    with pytest.raises(ValueError):
        build_lattice("Leech")


def test_gram_matrices_symmetric_positive_diagonal():
    for name in ("E8", "BW16", "E6"):
        lat = build_lattice(name)
        g = lat.gram
        n = len(g)
        assert all(g[i][j] == g[j][i] for i in range(n) for j in range(n))
        assert all(g[i][i] > 0 for i in range(n))


def test_coordinate_bounds_cover_shell(store):
    lat = build_lattice("E8")
    bounds = coordinate_bounds(lat, 2)
    shell = store.shell("E8", 2)
    for v in shell.vectors:
        assert all(abs(c) <= b for c, b in zip(v.coeffs, bounds))
    with pytest.raises(ValueError):
        coordinate_bounds(lat, 0)


def test_enumeration_counts_small(store):
    assert store.shell("E8", 2).count == 240
    assert store.shell("E6", 3).count == 72
    assert store.shell("E6", 6).count == 270


def test_shell_is_negation_closed(store):
    shell = store.shell("E6", 3)
    coeffs = {v.coeffs for v in shell.vectors}
    assert all(tuple(-c for c in v.coeffs) in coeffs for v in shell.vectors)


def test_empty_shell_for_impossible_norm():
    # E8 has no vectors of odd square norm
    assert enumerate_shell(build_lattice("E8"), 3).count == 0


@pytest.mark.parametrize("name,norm", [("E8", 2), ("E8", 4), ("E6", 3), ("E6", 6)])
def test_box_oracle_equivalence(store, name, norm):
    shell = store.shell(name, norm)
    fast = sorted(v.coeffs for v in shell.vectors)
    brute = naive_box_enumerate(build_lattice(name), norm)
    assert fast == brute


def test_budget_exceeded():
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_shell(build_lattice("BW16"), 6, node_budget=50)


def test_ambient_rows_match_generator(store):
    lat = build_lattice("E8")
    gen = lat.scaled_generator
    for v in store.shell("E8", 2).vectors:
        row = tuple(
            sum(v.coeffs[k] * gen[k][j] for k in range(8)) for j in range(8)
        )
        assert row == v.ambient
        assert sum(x * x for x in row) == 2 * lat.scale**2


def test_theta_check_results(store):
    shell = store.shell("E8", 2)
    res = theta_check(shell)
    assert res.ok and res.checked and res.expected == 240 and res.actual == 240

    truncated = Shell(lattice=shell.lattice, norm=2, vectors=shell.vectors[:-1])
    res = theta_check(truncated)
    assert not res.ok and res.actual == 239

    unknown = enumerate_shell(build_lattice("E8"), 12)
    res = theta_check(unknown)
    assert res.ok and not res.checked and res.expected is None


def test_cache_round_trip(tmp_path, store):
    shell = store.shell("E6", 3)
    path = tmp_path / "e6.shell"
    save_shell(shell, path)
    loaded = load_shell(shell.lattice, 3, path)
    assert loaded.vectors == shell.vectors

    shell8 = store.shell("E8", 2)
    path8 = tmp_path / "e8.shell"
    save_shell(shell8, path8)
    loaded8 = load_shell(shell8.lattice, 2, path8)
    assert loaded8.vectors == shell8.vectors


def test_ensure_shell_writes_then_reads(tmp_path):
    lat = build_lattice("E6")
    path = shell_cache_path(tmp_path, lat, 3)
    assert not path.exists()
    first = ensure_shell(lat, 3, cache_dir=tmp_path)
    assert path.exists()
    second = ensure_shell(lat, 3, cache_dir=tmp_path)
    assert first.vectors == second.vectors


def test_cache_env_var(tmp_path, monkeypatch):
    from magiclattice.lattices import default_cache_dir

    monkeypatch.setenv("MAGICLATTICE_CACHE", str(tmp_path / "env"))
    assert default_cache_dir() == tmp_path / "env"


def _write_variant(tmp_path, lines, name="bad.shell"):
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n")
    return p


@pytest.fixture()
def cached_e8(tmp_path, store):
    shell = store.shell("E8", 2)
    path = tmp_path / "ok.shell"
    save_shell(shell, path)
    return shell.lattice, path.read_text().splitlines()


def test_cache_corruption_bad_header(tmp_path, cached_e8):
    lat, lines = cached_e8
    p = _write_variant(tmp_path, ["#something-else v9"] + lines[1:])
    with pytest.raises(ShellCacheError):
        load_shell(lat, 2, p)


def test_cache_corruption_count_mismatch(tmp_path, cached_e8):
    lat, lines = cached_e8
    p = _write_variant(tmp_path, lines[:-1])
    with pytest.raises(ShellCacheError, match="declares"):
        load_shell(lat, 2, p)


def test_cache_corruption_wrong_norm_row(tmp_path, cached_e8):
    lat, lines = cached_e8
    p = _write_variant(tmp_path, lines[:1] + ["9 9 9 9 9 9 9 9"] + lines[2:])
    with pytest.raises(ShellCacheError, match="wrong norm"):
        load_shell(lat, 2, p)


def test_cache_corruption_non_lattice_row(tmp_path, cached_e8):
    lat, lines = cached_e8
    # right norm (8 = 2 * scale^2) but a mixed integer/half-integer point
    p = _write_variant(tmp_path, lines[:1] + ["2 1 1 1 1 0 0 0"] + lines[2:])
    with pytest.raises(ShellCacheError, match="not a E8 lattice point"):
        load_shell(lat, 2, p)


def test_e6_cache_rejects_non_lattice_row(tmp_path, store):
    shell = store.shell("E6", 3)
    path = tmp_path / "ok.shell"
    save_shell(shell, path)
    lines = path.read_text().splitlines()
    # components (1, -1, 1): norm 3, but 1 - 1 - 1 is not divisible by theta
    p = _write_variant(tmp_path, lines[:1] + ["1 0 -1 0 1 0"] + lines[2:])
    with pytest.raises(ShellCacheError, match="not a E6 lattice point"):
        load_shell(shell.lattice, 3, p)


def test_cache_corruption_wrong_width(tmp_path, cached_e8):
    lat, lines = cached_e8
    p = _write_variant(tmp_path, lines[:1] + ["1 2 3"] + lines[2:])
    with pytest.raises(ShellCacheError):
        load_shell(lat, 2, p)


def test_cache_corruption_garbage_token(tmp_path, cached_e8):
    lat, lines = cached_e8
    p = _write_variant(tmp_path, lines[:1] + ["x " + lines[1]] + lines[2:])
    with pytest.raises(ShellCacheError):
        load_shell(lat, 2, p)


def test_cache_header_identity_mismatch(tmp_path, cached_e8):
    lat, lines = cached_e8
    p = _write_variant(tmp_path, lines)
    with pytest.raises(ShellCacheError, match="header is for"):
        load_shell(lat, 4, p)
    with pytest.raises(ShellCacheError):
        load_shell(build_lattice("BW16"), 2, p)


def test_e6_complex_norm_equals_coefficient_norm(store):
    # the real quadratic form and the sum of Eisenstein component norms
    # must agree on every shell vector
    for norm in (3, 6):
        for v in store.shell("E6", norm).vectors:
            comps = v.eisenstein_components()
            assert sum(c.norm() for c in comps) == norm


def test_solve_eisenstein_round_trip(store):
    lat = build_lattice("E6")
    for v in store.shell("E6", 3).vectors:
        comps = v.eisenstein_components()
        beta = solve_eisenstein_coefficients(comps)
        assert beta is not None
        flat = tuple(b.a for b in beta) + tuple(b.b for b in beta)
        assert flat == v.coeffs


def test_solve_eisenstein_rejects_non_lattice_point():
    one = EisensteinInt(1)
    zero = EisensteinInt(0)
    assert solve_eisenstein_coefficients((one, zero, zero)) is None
    with pytest.raises(ValueError):
        solve_eisenstein_coefficients((one, zero))


def test_cache_rejects_duplicate_rows(tmp_path, store):
    shell = store.shell("E8", 4)
    path = tmp_path / "ok.shell"
    save_shell(shell, path)
    lines = path.read_text().splitlines()
    lines[2] = lines[3]  # row 3 copied over row 2; count and norms still fit
    p = _write_variant(tmp_path, lines)
    with pytest.raises(ShellCacheError, match="duplicate"):
        load_shell(shell.lattice, 4, p)


def test_cache_rejects_rows_not_closed_under_negation(tmp_path, cached_e8):
    lat, lines = cached_e8
    header = lines[0].replace("count=240", "count=239")
    p = _write_variant(tmp_path, [header] + lines[2:])
    with pytest.raises(ShellCacheError, match="negation"):
        load_shell(lat, 2, p)


# an E8 lattice point whose int64 square sum wraps to 8, the scaled norm 2
_WRAPPING_ROW = "-2 -2 4294967296 0 0 0 0 0"
_LOAD_SCRIPT = """
import sys
from magiclattice.lattices import ShellCacheError, build_lattice, load_shell
try:
    load_shell(build_lattice("E8"), 2, sys.argv[1])
except ShellCacheError:
    print("rejected")
"""


def test_cache_rejects_row_whose_norm_wraps_in_int64(tmp_path, cached_e8):
    lat, lines = cached_e8
    p = _write_variant(tmp_path, lines[:1] + [_WRAPPING_ROW] + lines[2:])
    with pytest.raises(ShellCacheError, match="wrong norm"):
        load_shell(lat, 2, p)
    # and under -O, which strips asserts
    env = dict(os.environ, PYTHONPATH=str(Path(magiclattice.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _LOAD_SCRIPT, str(p)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert done.stdout == "rejected\n"


def test_failed_save_keeps_the_old_cache_file(tmp_path, store, monkeypatch):
    shell = store.shell("E8", 2)
    path = tmp_path / "E8_norm2.shell"
    save_shell(shell, path)
    before = path.read_text()
    real_open = io.open

    class DiskFull:
        """A text file that takes half of one write, then runs out of space."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, text):
            self.fh.write(text[: len(text) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def open_on_full_disk(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return DiskFull(fh) if "w" in mode else fh

    monkeypatch.setattr(io, "open", open_on_full_disk)
    with pytest.raises(OSError):
        save_shell(shell, path)
    monkeypatch.undo()
    assert path.read_text() == before
    assert os.listdir(tmp_path) == [path.name]
