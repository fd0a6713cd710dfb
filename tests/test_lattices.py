import errno
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

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


def same_vectors(a, b):
    return (
        a.lattice == b.lattice
        and a.norm == b.norm
        and np.array_equal(a.coeffs, b.coeffs)
        and np.array_equal(a.rows, b.rows)
    )


def eisenstein_components(row):
    return tuple(EisensteinInt(a, b) for a, b in zip(row[0::2], row[1::2]))


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
    assert (np.abs(shell.coeffs) <= np.array(bounds)).all()
    with pytest.raises(ValueError):
        coordinate_bounds(lat, 0)


def test_enumeration_counts_small(store):
    assert store.shell("E8", 2).count == 240
    assert store.shell("E6", 3).count == 72
    assert store.shell("E6", 6).count == 270


def test_shell_is_negation_closed(store):
    shell = store.shell("E6", 3)
    coeffs = set(map(tuple, shell.coeffs.tolist()))
    assert all(tuple(-c for c in v) in coeffs for v in coeffs)


def test_empty_shell_for_impossible_norm():
    # E8 has no vectors of odd square norm
    assert enumerate_shell(build_lattice("E8"), 3).count == 0


@pytest.mark.parametrize("name,norm", [("E8", 2), ("E8", 4), ("E6", 3), ("E6", 6)])
def test_box_oracle_equivalence(store, name, norm):
    shell = store.shell(name, norm)
    fast = sorted(map(tuple, shell.coeffs.tolist()))
    brute = naive_box_enumerate(build_lattice(name), norm)
    assert fast == brute


def test_budget_exceeded():
    with pytest.raises(EnumerationBudgetExceeded):
        enumerate_shell(build_lattice("BW16"), 6, node_budget=50)


def test_ambient_rows_match_generator(store):
    lat = build_lattice("E8")
    gen = lat.scaled_generator
    shell = store.shell("E8", 2)
    for coeffs, ambient in zip(shell.coeffs.tolist(), shell.rows.tolist()):
        row = [sum(coeffs[k] * gen[k][j] for k in range(8)) for j in range(8)]
        assert row == ambient
        assert sum(x * x for x in row) == 2 * lat.scale**2


def test_theta_check_results(store):
    shell = store.shell("E8", 2)
    res = theta_check(shell)
    assert res.ok and res.checked and res.expected == 240 and res.actual == 240

    truncated = Shell(lattice=shell.lattice, norm=2, coeffs=shell.coeffs[:-1], rows=shell.rows[:-1])
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
    assert same_vectors(loaded, shell)

    shell8 = store.shell("E8", 2)
    path8 = tmp_path / "e8.shell"
    save_shell(shell8, path8)
    loaded8 = load_shell(shell8.lattice, 2, path8)
    assert same_vectors(loaded8, shell8)


def test_ensure_shell_writes_then_reads(tmp_path):
    lat = build_lattice("E6")
    path = shell_cache_path(tmp_path, lat, 3)
    assert not path.exists()
    first = ensure_shell(lat, 3, cache_dir=tmp_path)
    assert path.exists()
    second = ensure_shell(lat, 3, cache_dir=tmp_path)
    assert same_vectors(first, second)


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
        for row in store.shell("E6", norm).rows.tolist():
            assert sum(c.norm() for c in eisenstein_components(row)) == norm


def test_solve_eisenstein_round_trip(store):
    lat = build_lattice("E6")
    shell = store.shell("E6", 3)
    for coeffs, row in zip(shell.coeffs.tolist(), shell.rows.tolist()):
        beta = solve_eisenstein_coefficients(eisenstein_components(row))
        assert beta is not None
        flat = [b.a for b in beta] + [b.b for b in beta]
        assert flat == coeffs


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


_HEADROOM_SCRIPT = """
from magiclattice.lattices import build_lattice, enumerate_shell
try:
    enumerate_shell(build_lattice("E8"), 10**18)
except ValueError as exc:
    print("rejected" if "int64 headroom" in str(exc) else exc)
"""


def test_enumerate_headroom_guard_survives_optimize():
    # coefficients up to 10^9 would wrap the int64 square sum of the norm
    # check; the guard fires before the search, also under -O
    with pytest.raises(ValueError, match="int64 headroom"):
        enumerate_shell(build_lattice("E8"), 10**18)
    env = dict(os.environ, PYTHONPATH=str(Path(magiclattice.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-O", "-c", _HEADROOM_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    assert done.stdout == "rejected\n"


_SMALL_SHELLS = hs.sampled_from([("E8", 2), ("E6", 3)])


def _cache_lines(store, tmp_path_factory, name, norm):
    shell = store.shell(name, norm)
    path = tmp_path_factory.mktemp("cache") / "good.shell"
    save_shell(shell, path)
    header, *rows = path.read_text().splitlines()
    return shell, path, header, rows


@settings(max_examples=80, deadline=None)
@given(key=_SMALL_SHELLS, data=hs.data())
def test_cache_rejects_random_corruptions(store, tmp_path_factory, key, data):
    shell, path, header, rows = _cache_lines(store, tmp_path_factory, *key)
    count = f"count={len(rows)}"
    kind = data.draw(
        hs.sampled_from(
            ["sign", "drop", "drop-uncounted", "duplicate", "duplicate-uncounted", "float", "garbage"]
        )
    )
    i = data.draw(hs.integers(0, len(rows) - 1))
    tokens = rows[i].split()
    if kind == "sign":  # another vector of the same norm is a duplicate row
        j = data.draw(hs.sampled_from([j for j, tok in enumerate(tokens) if tok != "0"]))
        tokens[j] = str(-int(tokens[j]))
        rows[i] = " ".join(tokens)
    elif kind.startswith("drop"):
        del rows[i]
        if kind == "drop":
            header = header.replace(count, f"count={len(rows)}")
    elif kind.startswith("duplicate"):
        rows.insert(data.draw(hs.integers(0, len(rows))), rows[i])
        if kind == "duplicate":
            header = header.replace(count, f"count={len(rows)}")
    else:
        j = data.draw(hs.integers(0, len(tokens) - 1))
        if kind == "float":
            bad = hs.floats(allow_nan=False, allow_infinity=False).map(repr)
        else:
            bad = hs.text(alphabet="abxyz_+-.,;:!?*/%", min_size=1, max_size=4).filter(
                lambda tok: not tok.lstrip("+-").isdigit()
            )
        tokens[j] = data.draw(bad)
        rows[i] = " ".join(tokens)
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(ShellCacheError) as info:
        load_shell(shell.lattice, shell.norm, path)
    assert "\n" not in str(info.value)


@settings(max_examples=20, deadline=None)
@given(key=_SMALL_SHELLS, data=hs.data())
def test_cache_loads_any_row_order(store, tmp_path_factory, key, data):
    shell, path, header, rows = _cache_lines(store, tmp_path_factory, *key)
    path.write_text("\n".join([header] + data.draw(hs.permutations(rows))) + "\n")
    assert same_vectors(load_shell(shell.lattice, shell.norm, path), shell)
