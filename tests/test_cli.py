import csv
import hashlib
import io
import json

import pytest

from magiclattice import cli
from magiclattice.lattices import build_lattice, shell_cache_path


def run_cli(capsys, store, *argv):
    code = cli.main(list(argv) + ["--cache-dir", str(store.cache_dir)])
    return code, capsys.readouterr().out


def test_shells_e8(capsys, store):
    code, out = run_cli(capsys, store, "shells", "--lattice", "E8", "--norms", "2,4")
    assert code == 0
    assert "E8 l=2: 240 vectors, theta OK" in out
    assert "E8 l=4: 2160 vectors, theta OK" in out


def test_shells_e6_flags_last_row(capsys, store):
    code, out = run_cli(capsys, store, "shells", "--lattice", "E6")
    assert code == 0
    for count in (72, 270, 720, 936, 2160):
        assert f"{count} vectors, theta OK" in out
    # the vector-total discrepancy note rides on the l=15 line only
    flagged = [l for l in out.splitlines() if "note:" in l]
    assert len(flagged) == 1 and "l=15" in flagged[0]


def test_census_csv_exact_keys(capsys, store):
    code, out = run_cli(capsys, store, "census", "--lattice", "E6", "--norms", "3,6")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["table", "norm", "xi2", "m2", "label", "states", "vectors"]
    assert rows[1] == ["T4", "3", "1", "0", "Stabiliser", "12", "72"]
    assert rows[2] == ["T4", "6", "1/2", "1", "MaxMagicSIC", "45", "270"]


def test_census_json(capsys, store):
    code, out = run_cli(
        capsys, store, "census", "--lattice", "E8", "--norms", "4", "--format", "json"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["table"] == "T2"
    row = blob["rows"][0]
    assert row["norm"] == 4
    assert {c["xi2"]: c["states"] for c in row["classes"]} == {"1": 60, "7/16": 480}
    assert row["vector_count"] == 2160


def test_census_notes_flag_reference_discrepancies(capsys, store):
    code, out = run_cli(capsys, store, "census", "--lattice", "E6", "--norms", "9")
    assert code == 0
    assert "49/81" in out and "note" in out


def test_census_expected_mismatch_sets_exit_code(capsys, store, monkeypatch):
    monkeypatch.setitem(cli.EXPECTED_CENSUS, ("E6", 3), {"1": 99})
    code, out = run_cli(capsys, store, "census", "--lattice", "E6", "--norms", "3")
    assert code == 1
    assert "FAIL" in out


def test_orbits(capsys, store):
    code, out = run_cli(capsys, store, "orbits")
    assert code == 0
    assert "216" in out
    assert "[12]" in out and "[36, 9]" in out
    assert "True (72 covered)" in out


def test_orbits_json(capsys, store):
    code, out = run_cli(capsys, store, "orbits", "--format", "json")
    assert code == 0
    blob = json.loads(out)
    assert blob["group_size"] == 216
    assert blob["orbit_sizes_l6"] == [36, 9]
    assert blob["correspondence"] is True


@pytest.mark.parametrize(
    "fmt, digest",
    [
        pytest.param(
            "csv", "fe3aef7ebbd83c21bfbf62b7a9552121c1e9c9ce51e6bbceee6d1fbd12c5d190", id="csv"
        ),
        pytest.param(
            "json", "4d6e18cfebffab92ebbed1525bde02c9fee041b0ee4dcd4865182af2e32eea04", id="json"
        ),
    ],
)
def test_entangle_bw16_output_pinned(capsys, store, fmt, digest):
    # per-state profiles of all 16,440 BW16 l=4 and l=6 states, byte for byte
    code, out = run_cli(capsys, store, "entangle", "--lattice", "BW16", "--format", fmt)
    assert code == 0
    if fmt == "csv":
        assert len(out.splitlines()) == 16442
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_entangle_e8_two_qubit_mode(capsys, store):
    code, out = run_cli(capsys, store, "entangle", "--lattice", "E8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "state_id,C,C_sq"
    assert len([l for l in lines if l.startswith("E8-l4-")]) == 480
    assert '"1/2": 288' in lines[-1] and '"1/4": 192' in lines[-1]


def test_project_e8(capsys, store):
    code, out = run_cli(capsys, store, "project-e8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "shell,x,y,tag"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 240 + 2160
    # worked example: (1,-1,0,...) lands at ((1-cos(pi/8))/2, -sin(pi/8)/2)
    assert "2,0.0380602337444,-0.191341716183,first" in data
    tags = [l.rsplit(",", 1)[1] for l in data]
    assert tags.count("first") == 240
    assert tags.count("second-stab") == 240
    assert tags.count("second-magic") == 1920


def test_byte_determinism(capsys, store):
    _, first = run_cli(capsys, store, "census", "--lattice", "E6")
    _, second = run_cli(capsys, store, "census", "--lattice", "E6")
    assert first == second
    _, first = run_cli(capsys, store, "project-e8")
    _, second = run_cli(capsys, store, "project-e8")
    assert first == second


def test_cache_env_var_is_honored(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("MAGICLATTICE_CACHE", str(tmp_path))
    code = cli.main(["shells", "--lattice", "E6", "--norms", "3"])
    capsys.readouterr()
    assert code == 0
    assert shell_cache_path(tmp_path, build_lattice("E6"), 3).exists()


def test_bad_norms_rejected():
    with pytest.raises(SystemExit):
        cli.main(["shells", "--lattice", "E8", "--norms", "2,banana"])
    with pytest.raises(SystemExit):
        cli.main(["shells", "--lattice", "E8", "--norms", "-2"])
    with pytest.raises(SystemExit):
        cli.main(["nonsense"])
