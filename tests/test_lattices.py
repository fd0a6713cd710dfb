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
    path = tmp_path / "e6.npy"
    save_shell(shell, path)
    loaded = load_shell(shell.lattice, 3, path)
    assert same_vectors(loaded, shell)

    shell8 = store.shell("E8", 2)
    path8 = tmp_path / "e8.npy"
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


def test_stale_text_cache_is_ignored(tmp_path, store):
    stale = tmp_path / "E8_norm2.shell"
    stale.write_text("#magiclattice-shell v1 lattice=E8 norm=2 scale=2 count=1\n2 2 0 0 0 0 0 1\n")
    shell = ensure_shell(build_lattice("E8"), 2, cache_dir=tmp_path)
    assert same_vectors(shell, store.shell("E8", 2))
    assert shell_cache_path(tmp_path, shell.lattice, 2).name == "E8_norm2.npy"
    assert sorted(os.listdir(tmp_path)) == ["E8_norm2.npy", "E8_norm2.shell"]
    assert stale.read_text().startswith("#magiclattice-shell v1")


def test_cache_env_var(tmp_path, monkeypatch):
    from magiclattice.lattices import default_cache_dir

    monkeypatch.setenv("MAGICLATTICE_CACHE", str(tmp_path / "env"))
    assert default_cache_dir() == tmp_path / "env"


def _save_array(path, array):
    with open(path, "wb") as fh:
        np.save(fh, array, allow_pickle=array.dtype == object)
    return path


def _assert_rejected(lattice, norm, path, match=None):
    with pytest.raises(ShellCacheError, match=match) as info:
        load_shell(lattice, norm, path)
    assert "\n" not in str(info.value)


@pytest.fixture()
def cached_e8(tmp_path, store):
    shell = store.shell("E8", 2)
    path = tmp_path / "ok.npy"
    save_shell(shell, path)
    return shell.lattice, path


def test_cache_corruption_bad_header(tmp_path, cached_e8):
    lat, path = cached_e8
    raw = path.read_bytes()
    header_end = raw.index(b"\n") + 1
    flips = [
        (0, b"N"),  # the magic string
        (6, b"\x07"),  # an unknown format version
        (raw.index(b"<i8") + 1, b","),  # a SyntaxError inside numpy
        (raw.index(b"(240"), b"\t"),  # unbalanced brackets: a TokenError inside numpy
        (raw.index(b" 'fortran"), b"b"),  # a bytes key: a TypeError inside numpy
        (raw.index(b"descr"), b"x"),  # a missing key
        (raw.index(b"i8"), b"f"),  # float64
        (raw.index(b"<i8"), b">"),  # big-endian int64
        (raw.index(b"(240") + 1, b"9"),  # 940 rows declared, 240 stored
        (raw.index(b"(240") + 1, b"1"),  # 140 of the 240 rows
        (8, bytes([raw[8] - 16])),  # a shorter header length: the data read off by 16 bytes
    ]
    for pos, byte in flips:
        assert pos < header_end and raw[pos : pos + 1] != byte
        p = tmp_path / "flipped.npy"
        p.write_bytes(raw[:pos] + byte + raw[pos + 1 :])
        _assert_rejected(lat, 2, p)


def test_cache_corruption_count_mismatch(tmp_path, cached_e8):
    # truncated files: a cut in the array data, in the header, or no bytes
    lat, path = cached_e8
    raw = path.read_bytes()
    for size in (len(raw) - 8, len(raw) // 2, 50, 0):
        p = tmp_path / "truncated.npy"
        p.write_bytes(raw[:size])
        _assert_rejected(lat, 2, p, match="cannot read")
    # a header that declares far more rows than any memory holds
    end = raw.index(b"\n")
    header = raw[:end].replace(b"(240, 8)", b"(1000000000000, 8)")[:end]  # the padding absorbs it
    p.write_bytes(header + raw[end:])
    _assert_rejected(lat, 2, p, match="cannot read")


def test_cache_corruption_wrong_norm_row(tmp_path, cached_e8):
    lat, path = cached_e8
    coeffs = np.load(path)
    coeffs[5] = 0
    _assert_rejected(lat, 2, _save_array(tmp_path / "bad.npy", coeffs), match="wrong norm")


def test_cache_corruption_wrong_width(tmp_path, cached_e8, store):
    lat, path = cached_e8
    coeffs = np.load(path)
    e6 = store.shell("E6", 3).coeffs
    for bad in (coeffs[:, :-1], np.c_[coeffs, coeffs[:, :1]], coeffs.ravel(), coeffs[None], e6):
        _assert_rejected(lat, 2, _save_array(tmp_path / "bad.npy", bad), match="expected")


def test_cache_corruption_garbage_token(tmp_path, cached_e8):
    # arrays of another dtype, the same values
    lat, path = cached_e8
    coeffs = np.load(path)
    for dtype in (np.float64, np.int32, object):
        _assert_rejected(lat, 2, _save_array(tmp_path / "bad.npy", coeffs.astype(dtype)))


def test_cache_header_identity_mismatch(tmp_path, store):
    # another shell's file under this shell's name
    for (name, norm), (other, other_norm) in [
        (("E8", 2), ("E8", 4)),
        (("E8", 4), ("E8", 2)),
        (("E8", 2), ("BW16", 4)),
        (("E6", 3), ("E6", 6)),
    ]:
        p = shell_cache_path(tmp_path, build_lattice(name), norm)
        save_shell(store.shell(other, other_norm), p)
        _assert_rejected(build_lattice(name), norm, p)


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
    coeffs = shell.coeffs.copy()
    coeffs[2] = coeffs[3]  # row 3 copied over row 2; shape and norms still fit
    _assert_rejected(shell.lattice, 4, _save_array(tmp_path / "bad.npy", coeffs), match="duplicate")


def test_cache_rejects_rows_not_closed_under_negation(tmp_path, cached_e8):
    lat, path = cached_e8
    _assert_rejected(lat, 2, _save_array(tmp_path / "bad.npy", np.load(path)[1:]), match="negation")


def _wrapping_coeffs(lattice):
    """Coefficients of the E8 point (-2, -2, 2^32, 0, ..., 0) (scaled):
    its int64 square sum wraps to 8, the scaled norm 2."""
    gen = np.array(lattice.scaled_generator, dtype=np.int64)
    row = np.array([-2, -2, 2**32, 0, 0, 0, 0, 0], dtype=np.int64)
    coeffs = np.rint(np.linalg.solve(gen.T.astype(float), row.astype(float))).astype(np.int64)
    assert (coeffs @ gen == row).all() and int((row * row).sum()) == 8
    return coeffs


_LOAD_SCRIPT = """
import sys
from magiclattice.lattices import ShellCacheError, build_lattice, load_shell
try:
    load_shell(build_lattice("E8"), 2, sys.argv[1])
except ShellCacheError as exc:
    print("rejected" if "wrong norm" in str(exc) else exc)
"""


def test_cache_rejects_row_whose_norm_wraps_in_int64(tmp_path, cached_e8):
    # a vector and its negation swapped for a pair whose norm wraps: still
    # distinct and closed under negation, so only the coefficient bound
    # stands between this file and a wrong shell
    lat, path = cached_e8
    coeffs = np.load(path)
    coeffs[0] = _wrapping_coeffs(lat)
    coeffs[-1] = -coeffs[0]
    p = _save_array(tmp_path / "bad.npy", coeffs)
    _assert_rejected(lat, 2, p, match="wrong norm")
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
    path = tmp_path / "E8_norm2.npy"
    save_shell(shell, path)
    before = path.read_bytes()
    real_open = io.open

    class DiskFull:
        """A binary file that takes half of one write, then runs out of space."""

        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[: len(data) // 2])
            raise OSError(errno.ENOSPC, "No space left on device")

    def open_on_full_disk(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        return DiskFull(fh) if "w" in mode else fh

    monkeypatch.setattr(io, "open", open_on_full_disk)
    with pytest.raises(OSError):
        save_shell(shell, path)
    monkeypatch.undo()
    assert path.read_bytes() == before
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


def _cache_file(store, tmp_path_factory, name, norm):
    shell = store.shell(name, norm)
    path = tmp_path_factory.mktemp("cache") / "good.npy"
    save_shell(shell, path)
    return shell, path


@settings(max_examples=80, deadline=None)
@given(key=_SMALL_SHELLS, data=hs.data())
def test_cache_rejects_random_corruptions(store, tmp_path_factory, key, data):
    shell, path = _cache_file(store, tmp_path_factory, *key)
    coeffs = shell.coeffs.copy()
    kind = data.draw(hs.sampled_from(["sign", "drop", "duplicate", "past-bound", "truncate"]))
    i = data.draw(hs.integers(0, len(coeffs) - 1))
    if kind == "sign":  # another vector of the same norm is a duplicate row
        j = data.draw(hs.sampled_from(np.flatnonzero(coeffs[i]).tolist()))
        coeffs[i, j] *= -1
    elif kind == "drop":
        coeffs = np.delete(coeffs, i, axis=0)
    elif kind == "duplicate":
        coeffs = np.insert(coeffs, data.draw(hs.integers(0, len(coeffs))), coeffs[i], axis=0)
    elif kind == "past-bound":
        j = data.draw(hs.integers(0, shell.lattice.coeff_dim - 1))
        bound = coordinate_bounds(shell.lattice, shell.norm)[j]
        coeffs[i, j] = data.draw(hs.integers(bound + 1, 2**63 - 1) | hs.integers(-(2**63), -bound - 1))
    if kind == "truncate":
        raw = path.read_bytes()
        path.write_bytes(raw[: data.draw(hs.integers(0, len(raw) - 1))])
    else:
        _save_array(path, coeffs)
    _assert_rejected(shell.lattice, shell.norm, path)


# numpy's header parser warns on some malformed headers before it fails
@pytest.mark.filterwarnings("ignore::DeprecationWarning", "ignore::UserWarning")
@settings(max_examples=150, deadline=None)
@given(key=_SMALL_SHELLS, data=hs.data())
def test_cache_header_flips_never_load_a_wrong_shell(store, tmp_path_factory, key, data):
    # some flips leave the header's meaning intact (padding, '<' to '=');
    # every other one is a one-line ShellCacheError
    shell, path = _cache_file(store, tmp_path_factory, *key)
    raw = path.read_bytes()
    pos = data.draw(hs.integers(0, raw.index(b"\n")))
    byte = data.draw(hs.integers(0, 255).filter(lambda b: b != raw[pos]))
    path.write_bytes(raw[:pos] + bytes([byte]) + raw[pos + 1 :])
    try:
        loaded = load_shell(shell.lattice, shell.norm, path)
    except ShellCacheError as exc:
        assert "\n" not in str(exc)
    else:
        assert same_vectors(loaded, shell)


@settings(max_examples=20, deadline=None)
@given(key=_SMALL_SHELLS, data=hs.data())
def test_cache_loads_any_row_order(store, tmp_path_factory, key, data):
    shell, path = _cache_file(store, tmp_path_factory, *key)
    order = data.draw(hs.permutations(range(shell.count)))
    _save_array(path, shell.coeffs[order])
    assert same_vectors(load_shell(shell.lattice, shell.norm, path), shell)
