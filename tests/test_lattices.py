import errno
import io
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import magiclattice
from magiclattice.exact import EisensteinInt
from magiclattice import lattices
from magiclattice.lattices import (
    EnumerationBudgetExceeded,
    HeadroomError,
    ShellCacheError,
    _ambient_rows,
    _float_generator,
    _form_for,
    _int64_bounds,
    _isqrt,
    _search,
    build_lattice,
    coordinate_bounds,
    enumerate_shell,
    ensure_shell,
    load_shell,
    packed_keys,
    save_shell,
    shell_cache_path,
    shell_size,
    solve_eisenstein_coefficients,
    stream_shell,
    theta_check,
)
from oracles import (
    determinant,
    dfs_enumerate,
    fraction_generator,
    gram_matrix,
    mat_inverse,
    naive_box_enumerate,
    old_generator,
    solve_rational,
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
    assert shell_size(e8, 2) == 240

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


@pytest.mark.parametrize("name", ["E8", "BW16", "E6"])
def test_integer_set_up_matches_the_fraction_oracle(name):
    # build_lattice works in integers; the Gram matrix and the diagonal of
    # its inverse must be those of Fraction arithmetic on the generator
    lat = build_lattice(name)
    generator = fraction_generator(lat)
    assert lat.scaled_generator == tuple(tuple(int(x * lat.scale) for x in row) for row in generator)
    gram = gram_matrix(lat, generator)
    assert lat.gram == tuple(map(tuple, gram))
    inverse = mat_inverse(gram)
    assert lat.gram_inv_diag == tuple(inverse[i][i] for i in range(lat.coeff_dim))


@pytest.mark.parametrize("name", ["E8", "BW16"])
def test_ring_basis_spans_the_old_lattice(name):
    # every row of the old real generator has integer coordinates over the
    # ring basis, and the two have one covolume: the lattices are equal
    lat = build_lattice(name)
    new = fraction_generator(lat)
    old = old_generator(name)
    for row in old:
        assert all(x.denominator == 1 for x in solve_rational(new, row)), row
    assert abs(determinant(new)) == abs(determinant(old)) != 0


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


def test_budget_exceeded_before_the_innermost_levels():
    # BW16 l=8 visits 565,679 nodes; the search stops at the first level
    # whose children pass the budget, before it expands them
    with pytest.raises(EnumerationBudgetExceeded) as info:
        enumerate_shell(build_lattice("BW16"), 8, node_budget=10**5)
    assert info.value.budget == 10**5 and 10**5 < info.value.visited < 565_679


@pytest.mark.parametrize("name", ["E8", "BW16"])
def test_search_near_the_headroom_holds_no_level_past_a_chunk(name):
    # l = 10^14 passes the guard, and the outermost coordinate alone takes
    # 14,142,136 values; the search takes them, and the children of every
    # later node with more than CHUNK_NODES, in runs, so it yields chunks
    # in bounded memory until it passes the node budget (the whole root
    # level at once held about 1.7 GiB for BW16)
    lattice, norm = build_lattice(name), 10**14
    _int64_bounds(lattice, norm)
    chunks = 0
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationBudgetExceeded):
            for chunk in lattices._search_chunks(lattice, norm, 8 * 10**7):
                chunks += 1
                assert len(chunk) <= 2 * lattices.CHUNK_NODES
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert chunks > 0 and peak < 32 * 2**20


@pytest.mark.parametrize("name,norm", [("E8", 4), ("E8", 8), ("BW16", 4), ("E6", 9), ("E6", 12)])
def test_one_node_chunks_match_recursive_oracle(monkeypatch, name, norm):
    # with one node per chunk every node that has more than one child has
    # them searched one by one; every chunk then holds at most the two
    # roots of level 0
    monkeypatch.setattr(lattices, "CHUNK_NODES", 1)
    _same_search(name, norm)
    assert max(map(len, lattices._search_chunks(build_lattice(name), norm, 10**10))) <= 2


def _same_search(name, norm):
    lattice = build_lattice(name)
    coeffs, visited = _search(lattice, norm, 10**10)
    oracle, oracle_visited = dfs_enumerate(lattice, norm)
    assert visited == oracle_visited
    assert sorted(map(tuple, coeffs.tolist())) == sorted(map(tuple, oracle.tolist()))


def _rows(array):
    return sorted(map(tuple, array.tolist()))


_ORBIT_SHELLS = [("E8", n) for n in range(1, 17)] + [("BW16", n) for n in range(1, 7)] + [
    ("E6", n) for n in range(1, 31)
]


@pytest.mark.parametrize("name,norm", _ORBIT_SHELLS)
def test_search_finds_one_vector_per_unit_orbit(name, norm):
    # the representatives times the units are the whole shell of an
    # unpruned depth-first search, each representative's first nonzero
    # coefficient pair in search order lies in the sector, and no two
    # representatives share a unit orbit
    lattice = build_lattice(name)
    reps = _search(lattice, norm, 10**10)[0]
    images = lattices.unit_images(lattice, reps)
    assert _rows(images) == _rows(dfs_enumerate(lattice, norm, per_orbit=False)[0])
    assert len(set(map(tuple, images.tolist()))) == len(images)
    order = _form_for(lattice)[0]
    half = lattice.coeff_dim // 2
    for row in reps.tolist():
        a, b = next((row[i], row[i + half]) for i in reversed(order) if i < half and (row[i] or row[i + half]))
        assert lattices.in_sector(np.array(a), np.array(b), lattice.ring)


@pytest.mark.parametrize("name", ["E8", "BW16", "E6"])
def test_search_leads_match_the_scalar_first_nonzero_pair(name):
    # sparse rows, so that the first nonzero pair falls at every depth, and
    # zero rows, whose lead is (0, 0)
    lattice = build_lattice(name)
    rng = np.random.default_rng(7)
    coeffs = rng.integers(-2, 3, (2000, lattice.coeff_dim)) * (rng.random((2000, lattice.coeff_dim)) < 0.15)
    coeffs[:5] = 0
    order, half = _form_for(lattice)[0], lattice.coeff_dim // 2
    expected = [
        next(((row[i], row[i + half]) for i in reversed(order) if i < half and (row[i] or row[i + half])), (0, 0))
        for row in coeffs.tolist()
    ]
    a, b = lattices._search_leads(lattice, coeffs)
    assert list(zip(a.tolist(), b.tolist())) == expected


@pytest.mark.parametrize("name,norm", [("E8", 4), ("BW16", 4), ("E6", 9)])
def test_search_vectors_are_checked_and_are_a_whole_shells_search_members(name, norm):
    # a chunk of the search must hold the search's vector of each of its
    # unit orbits: the rows of the whole shell whose first nonzero
    # coefficient pair, in search order, lies in the canonical sector
    lattice = build_lattice(name)
    bounds, generator = _int64_bounds(lattice, norm), _float_generator(lattice)
    reps = _search(lattice, norm, 10**10)[0]
    chunk = lattices._shell_from_coeffs(lattice, norm, reps, bounds, generator, per_orbit=True)
    assert chunk.multiplicity == len(lattices.UNIT_COORDS[lattice.ring]) and chunk.coeffs is reps
    shell = enumerate_shell(lattice, norm)
    members = shell.coeffs[lattices.in_sector(*lattices._search_leads(lattice, shell.coeffs), lattice.ring)]
    assert _rows(members) == _rows(reps)
    # the other members of the orbits: the negated rows, and a row's images
    for other in (-reps, lattices.unit_images(lattice, reps[:1])[1:]):
        with pytest.raises(ValueError, match="not the search's vector of its unit orbit"):
            lattices._shell_from_coeffs(lattice, norm, other, bounds, generator, per_orbit=True)


def test_bw16_l8_node_count_is_pinned():
    # the unit-orbit pruning visits 565,679 nodes (1,548,067 with only +-)
    chunks = lattices._search_chunks(build_lattice("BW16"), 8, 10**10)
    with pytest.raises(StopIteration) as done:
        while True:
            next(chunks)
    assert done.value.value == 565_679


_PAPER_SHELLS = [("E8", n) for n in (2, 4, 6, 8)] + [("BW16", n) for n in (4, 6)] + [
    ("E6", n) for n in (3, 6, 9, 12, 15)
]
_BEYOND_PAPER = [("E8", n) for n in (3, 10, 12, 14, 16)] + [("E6", n) for n in (4, 18, 21, 24, 27, 30)]


@pytest.mark.parametrize("name,norm", _PAPER_SHELLS + _BEYOND_PAPER)
def test_search_matches_recursive_oracle(name, norm):
    # the same coefficient set and the same node count as a depth-first search
    _same_search(name, norm)


@pytest.mark.heavy
def test_search_matches_recursive_oracle_bw16_l8():
    _same_search("BW16", 8)


@pytest.mark.parametrize("name,norm", _PAPER_SHELLS + _BEYOND_PAPER)
def test_small_chunks_match_recursive_oracle(monkeypatch, name, norm):
    # with 64 children per chunk the search splits at several levels and
    # nests its runs; the chunks together are still the oracle's search
    monkeypatch.setattr(lattices, "CHUNK_NODES", 64)
    _same_search(name, norm)
    lattice = build_lattice(name)
    chunks = list(lattices._search_chunks(lattice, norm, 10**10))
    assert len(chunks) > 1 or len(chunks[0]) < 100
    # no two vectors of the chunks share a unit orbit
    images = lattices.unit_images(lattice, np.concatenate(chunks))
    assert len(set(map(tuple, images.tolist()))) == len(images)


def test_budget_exceeded_mid_stream_leaves_no_cache_file(tmp_path, monkeypatch):
    monkeypatch.setattr(lattices, "CHUNK_NODES", 1024)
    monkeypatch.setenv(lattices.CACHE_ENV_VAR, str(tmp_path))
    chunks = stream_shell(build_lattice("BW16"), 8, node_budget=10**5)
    assert next(chunks).count > 0  # the first chunk was yielded
    with pytest.raises(EnumerationBudgetExceeded):
        list(chunks)
    assert os.listdir(tmp_path) == []


@settings(max_examples=200, deadline=None)
@given(root=hs.integers(0, 2**26), offset=hs.sampled_from([-1, 0, 1]))
def test_isqrt_is_exact_below_2_52(root, offset):
    value = min(max(root * root + offset, 0), 2**52 - 1)
    assert _isqrt(np.array([value], dtype=np.int64))[0] == math.isqrt(value)


@hs.composite
def _bounded_rows(draw):
    bounds = draw(hs.lists(hs.integers(0, 2**40) | hs.integers(0, 3), min_size=1, max_size=12))
    pool = draw(
        hs.lists(hs.tuples(*(hs.integers(-b, b) for b in bounds)), min_size=1, max_size=8)
    )
    rows = draw(hs.lists(hs.sampled_from(pool), max_size=40))  # drawn from a small pool: ties
    return np.array(rows, dtype=np.int64).reshape(-1, len(bounds)), bounds


@settings(max_examples=200, deadline=None)
@given(case=_bounded_rows())
def test_packed_keys_sort_like_lexsort(case):
    rows, bounds = case
    keys = packed_keys(rows, bounds)
    assert np.array_equal(np.lexsort(keys.T[::-1]), np.lexsort(rows.T[::-1]))
    equal_keys = (keys[:, None] == keys[None]).all(axis=2)
    assert np.array_equal(equal_keys, (rows[:, None] == rows[None]).all(axis=2))


def test_packed_keys_start_a_word_before_2_63():
    # radix 2^21 + 1 three times would pass 2^63, radix 11 sixteen times would not
    assert packed_keys(np.zeros((1, 3), dtype=np.int64), [2**20] * 3).shape == (1, 2)
    assert packed_keys(np.zeros((1, 16), dtype=np.int64), [5] * 16).shape == (1, 1)
    with pytest.raises(ValueError, match="headroom"):
        packed_keys(np.zeros((1, 1), dtype=np.int64), [2**62])


@lru_cache(maxsize=None)
def _largest_norm(name):
    """The largest norm that _int64_bounds accepts for a lattice."""
    lat, lo, hi = build_lattice(name), 1, 2**62
    while hi - lo > 1:
        mid = (lo + hi) // 2
        try:
            _int64_bounds(lat, mid)
            lo = mid
        except HeadroomError:
            hi = mid
    return lo


@pytest.mark.parametrize("name,old_largest", [("E8", 75_059_993_789_508), ("BW16", 162_467_519_024), ("E6", 562_949_953_421_311)])
def test_headroom_accepts_every_norm_the_real_bases_did(name, old_largest):
    # the largest norms that the guard accepted over the earlier real
    # generators (common 60 for E8 and 27,720 for BW16); the guard is
    # monotone in the norm, so every smaller norm passes too
    assert _largest_norm(name) >= old_largest


def _int_product(lat, coeffs):
    return coeffs.astype(object) @ np.array(lat.scaled_generator, dtype=object)


@pytest.mark.parametrize("name", ["E8", "BW16", "E6"])
def test_float_matmul_is_exact_at_the_largest_accepted_norm(name):
    # every +-bound corner of the coefficient box, among them for each
    # ambient column the row that reaches the largest partial sum
    lat, norm = build_lattice(name), _largest_norm(name)
    with pytest.raises(HeadroomError):
        _int64_bounds(lat, norm + 1)
    bounds = _int64_bounds(lat, norm)
    signs = np.array(list(itertools.product((1, -1), repeat=lat.coeff_dim)), dtype=np.int64)
    corners = signs * bounds
    exact = _int_product(lat, corners)
    reach = max(sum(int(b) * abs(row[k]) for b, row in zip(bounds, lat.scaled_generator)) for k in range(lat.real_dim))
    assert np.abs(exact).max() == reach > 2**23
    assert (_ambient_rows(corners, _float_generator(lat)) == exact).all()


@hs.composite
def _in_bound_rows(draw):
    name = draw(hs.sampled_from(["E8", "BW16", "E6"]))
    lat = build_lattice(name)
    norm = draw(hs.integers(1, _largest_norm(name)) | hs.integers(_largest_norm(name) - 10**6, _largest_norm(name)))
    bounds = _int64_bounds(lat, norm).tolist()
    row = hs.tuples(*(hs.integers(-b, b) | hs.sampled_from([-b, b]) for b in bounds))
    return lat, np.array(draw(hs.lists(row, min_size=1, max_size=12)), dtype=np.int64)


@settings(max_examples=200, deadline=None)
@given(case=_in_bound_rows(), block=hs.integers(1, 5))
def test_float_matmul_is_exact_on_in_bound_rows(case, block):
    lat, coeffs = case
    with mock.patch.object(lattices, "MATMUL_ROWS", block):  # rows cross block edges
        rows = _ambient_rows(coeffs, _float_generator(lat))
    assert rows.dtype == np.int64
    assert (rows == _int_product(lat, coeffs)).all()


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
    res = theta_check(shell.lattice, 2, shell.count)
    assert res.ok and res.expected == 240 and res.actual == 240

    res = theta_check(shell.lattice, 2, shell.count - 1)
    assert not res.ok and res.expected == 240 and res.actual == 239


@pytest.mark.parametrize("name,top", [("E8", 18), ("E6", 39), ("BW16", 8)])
def test_shell_size_counts_every_searched_shell(name, top):
    # every norm from 1, the empty shells among them; the search is
    # checked against the recursive and box-scan oracles elsewhere
    lattice = build_lattice(name)
    for norm in range(1, top + 1):
        found = sum(map(len, lattices._search_chunks(lattice, norm, 10**10)))
        assert shell_size(lattice, norm) == found * len(lattices.UNIT_COORDS[lattice.ring]), norm
    with pytest.raises(ValueError):
        shell_size(lattice, 0)


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
    # the text cache, and the .npy cache over the earlier real basis, under
    # their own names; a file of the old coefficients would pass the
    # headroom and bound checks but not the norm check
    stale = tmp_path / "E8_norm2.shell"
    stale.write_text("#magiclattice-shell v1 lattice=E8 norm=2 scale=2 count=1\n2 2 0 0 0 0 0 1\n")
    old_npy = tmp_path / "E8_norm2.npy"
    old_npy.write_bytes(b"not this shell")
    shell = ensure_shell(build_lattice("E8"), 2, cache_dir=tmp_path)
    assert same_vectors(shell, store.shell("E8", 2))
    assert shell_cache_path(tmp_path, shell.lattice, 2).name == "E8_norm2_ring.npy"
    assert sorted(os.listdir(tmp_path)) == ["E8_norm2.npy", "E8_norm2.shell", "E8_norm2_ring.npy"]
    assert stale.read_text().startswith("#magiclattice-shell v1")
    assert old_npy.read_bytes() == b"not this shell"


def test_cache_env_var(tmp_path, monkeypatch):
    from magiclattice.lattices import default_cache_dir

    monkeypatch.setenv("MAGICLATTICE_CACHE", str(tmp_path / "env"))
    assert default_cache_dir() == tmp_path / "env"


def _save_array(path, array):
    with open(path, "wb") as fh:
        np.save(fh, array, allow_pickle=array.dtype == object)
    return path


def _assert_rejected(lattice, norm, path, match=None):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ShellCacheError, match=match) as info:
            load_shell(lattice, norm, path)
    assert "\n" not in str(info.value)
    assert caught == []  # numpy's header parser warns on some flips


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
        (raw.index(b"(240") + 3, b"L"),  # 24 rows in a Python 2 header: a UserWarning inside numpy
        (raw.index(b"descr"), b"\\"),  # an invalid escape: a DeprecationWarning inside numpy
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
    _assert_rejected(lat, 2, _save_array(tmp_path / "bad.npy", np.load(path)[1:]), match="239 rows, but the shell has 240")


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
    with pytest.raises(ShellCacheError) as info:
        save_shell(shell, path)
    assert str(info.value) == f"cannot write shell cache {path}: [Errno 28] No space left on device"
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [path.name]


_HEADROOM_SCRIPT = """
import sys
from magiclattice.lattices import build_lattice, enumerate_shell
try:
    enumerate_shell(build_lattice("E8"), int(sys.argv[1]), node_budget=10**6)
except ValueError as exc:
    print("rejected" if "int64 headroom" in str(exc) else exc)
"""


def test_enumerate_headroom_guard_survives_optimize():
    # the guard fires before the search (a search would exceed the node
    # budget), also under -O
    env = dict(os.environ, PYTHONPATH=str(Path(magiclattice.__file__).parents[1]))
    for norm in (
        # coefficients up to 10^9 would wrap the int64 square sum of the
        # norm check
        10**18,
        # the shell arrays fit, but common * norm = 4 * 2^50 is past the
        # 2^52 below which the search's float-seeded square root is exact
        2**50,
    ):
        with pytest.raises(HeadroomError, match="int64 headroom"):
            enumerate_shell(build_lattice("E8"), norm, node_budget=10**6)
        done = subprocess.run(
            [sys.executable, "-O", "-c", _HEADROOM_SCRIPT, str(norm)],
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
    kind = data.draw(hs.sampled_from(["sign", "drop", "drop-pair", "duplicate", "past-bound", "truncate"]))
    i = data.draw(hs.integers(0, len(coeffs) - 1))
    if kind == "sign":  # another vector of the same norm is a duplicate row
        j = data.draw(hs.sampled_from(np.flatnonzero(coeffs[i]).tolist()))
        coeffs[i, j] *= -1
    elif kind == "drop":
        coeffs = np.delete(coeffs, i, axis=0)
    elif kind == "drop-pair":  # v and -v: still closed under negation, two rows short
        coeffs = np.delete(coeffs, [i, len(coeffs) - 1 - i], axis=0)  # negation reverses the sorted rows
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
    # numpy's header parser warns on some malformed headers before it
    # fails; no warning gets out of load_shell
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            loaded = load_shell(shell.lattice, shell.norm, path)
        except ShellCacheError as exc:
            assert "\n" not in str(exc)
        else:
            assert same_vectors(loaded, shell)
    assert caught == []


@settings(max_examples=20, deadline=None)
@given(key=_SMALL_SHELLS, data=hs.data())
def test_cache_loads_any_row_order(store, tmp_path_factory, key, data):
    shell, path = _cache_file(store, tmp_path_factory, *key)
    order = data.draw(hs.permutations(range(shell.count)))
    _save_array(path, shell.coeffs[order])
    assert same_vectors(load_shell(shell.lattice, shell.norm, path), shell)
