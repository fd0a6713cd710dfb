import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from magiclattice import cli, lattices, magic, pipeline
from magiclattice.lattices import build_lattice, shell_cache_path
from magiclattice.states import dedup
from oracles import real_to_complex

GOLDEN_REPRODUCE = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "reproduce.txt"


def run_cli(capsys, store, *argv):
    # only shells reads or writes the shell cache
    cache = ["--cache-dir", str(store.cache_dir)] if argv[0] == "shells" else []
    code = cli.main(list(argv) + cache)
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
    monkeypatch.setitem(pipeline.EXPECTED_CENSUS, ("E6", 3), {"1": 99})
    code, out = run_cli(capsys, store, "census", "--lattice", "E6", "--norms", "3")
    assert code == 1
    assert "FAIL" in out


@pytest.mark.parametrize("name,norm,found,limit", [("E8", 10, 120, 60), ("E6", 21, 24, 12)])
def test_census_fails_on_more_stabilisers_than_a_register_has(capsys, store, name, norm, found, limit):
    # a census counts unit orbits, so past the paper's shells
    # two ring multiples of one ray count as two states
    code, out = run_cli(capsys, store, "census", "--lattice", name, "--norms", str(norm))
    assert code == 1
    (fail,) = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert f"[{found} states at Xi_2 = 1, more than the {limit} stabiliser states]" in fail


def _shell_size_off_by_one(monkeypatch, name, norm):
    # on a fresh cache, so that no load_shell refuses the file first
    real = lattices.shell_size
    monkeypatch.setattr(lattices, "shell_size", lambda lat, n: real(lat, n) + ((lat.name, n) == (name, norm)))


def test_census_checks_the_theta_series(capsys, tmp_path, monkeypatch):
    _shell_size_off_by_one(monkeypatch, "E6", 3)
    code = cli.main(["census", "--lattice", "E6", "--norms", "3", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    (fail,) = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert fail.startswith("FAIL shell E6 l=3: 72 vectors")


def test_census_writes_no_shell_cache(capsys, tmp_path):
    cache = tmp_path / "cache"
    for name in pipeline.DEFAULT_NORMS:
        assert cli.main(["census", "--lattice", name, "--cache-dir", str(cache)]) == 0
    capsys.readouterr()
    assert not cache.exists()


def test_shells_checks_the_theta_series_past_the_paper(capsys, tmp_path, monkeypatch):
    _shell_size_off_by_one(monkeypatch, "E8", 10)
    code = cli.main(["shells", "--lattice", "E8", "--norms", "10", "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert out.startswith("E8 l=10: 30240 vectors, theta MISMATCH (expected 30241)")


def test_orbits(capsys, store):
    code, out = run_cli(capsys, store, "orbits")
    assert code == 0
    assert "216" in out
    assert "[12]" in out and "[36, 9]" in out
    assert "True (72 covered)" in out


def _replace_everywhere(monkeypatch, fn, replacement):
    # every module binding of the function, so a direct import is caught too
    for name, module in list(sys.modules.items()):
        if name.startswith("magiclattice") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, replacement)


def _count_calls(monkeypatch, fn):
    """The list of the positional arguments of every call of fn."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    _replace_everywhere(monkeypatch, fn, counted)
    return calls


def test_census_and_reproduce_ignore_a_filled_cache(capsys, tmp_path, monkeypatch):
    # on a directory that shells filled they print what they print without
    # one, load no file from it and leave it as it was
    commands = (["census", "--lattice", "E8", "--format", "json"], ["census", "--lattice", "E6"], ["reproduce"])

    def outputs(extra):
        for argv in commands:
            assert cli.main(argv + extra) == 0
            yield re.sub(r" \(\d+\.\d+s\)", "", capsys.readouterr().out)

    cold = list(outputs([]))
    for name in pipeline.DEFAULT_NORMS:
        assert cli.main(["shells", "--lattice", name, "--cache-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    listing = sorted(os.listdir(tmp_path))
    assert len(listing) == 11
    loads = _count_calls(monkeypatch, lattices.load_shell)
    assert list(outputs(["--cache-dir", str(tmp_path)])) == cold
    assert loads == [] and sorted(os.listdir(tmp_path)) == listing


@pytest.mark.parametrize(
    "argv",
    [["reproduce"], ["orbits"], ["entangle", "--lattice", "BW16"], ["entangle", "--lattice", "E8"]],
    ids=lambda argv: "-".join(argv),
)
def test_state_stages_stream_and_leave_the_cache_empty(capsys, tmp_path, monkeypatch, argv):
    # the states come from the stream alone: no whole shell is enumerated,
    # loaded or written, and no whole shell is deduplicated
    def refuse(*args, **kwargs):
        raise AssertionError("a whole-shell function ran")

    for fn in (lattices.ensure_shell, lattices.enumerate_shell, lattices.load_shell, lattices.save_shell, dedup):
        _replace_everywhere(monkeypatch, fn, refuse)
    monkeypatch.setenv(lattices.CACHE_ENV_VAR, str(tmp_path / "cache"))
    assert cli.main(argv) == 0
    capsys.readouterr()
    assert os.listdir(tmp_path) == []


def test_project_e8_writes_no_shell_cache(capsys, tmp_path, monkeypatch):
    # it enumerates its two whole shells and keeps them in memory only
    monkeypatch.setenv(lattices.CACHE_ENV_VAR, str(tmp_path / "cache"))
    assert cli.main(["project-e8"]) == 0
    capsys.readouterr()
    assert os.listdir(tmp_path) == []


def test_reproduce_times_the_kept_shells_states(capsys, tmp_path, monkeypatch):
    # a kept shell's timing token covers the making of its states
    real = pipeline.shell_states

    def slow(*args):
        time.sleep(0.1)
        return real(*args)

    monkeypatch.setattr(pipeline, "shell_states", slow)
    assert cli.main(["reproduce", "--cache-dir", str(tmp_path)]) == 0
    seconds = {
        (name, int(norm)): float(t)
        for name, norm, t in re.findall(r"PASS shell (\w+) l=(\d+): \d+ vectors \((\d+\.\d+)s\)", capsys.readouterr().out)
    }
    assert len(seconds) == 11
    assert all(seconds[key] >= 0.1 for key in pipeline.LATER_STAGE_SHELLS)


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


def test_reproduce_matches_golden(capsys, store):
    # every check of every subcommand, run once; timings are the only
    # tokens that differ run to run
    code, out = run_cli(capsys, store, "reproduce")
    assert code == 0
    assert re.sub(r" \(\d+\.\d+s\)", "", out) == GOLDEN_REPRODUCE.read_text()


def test_reproduce_evaluates_xi2_once_per_state_set(capsys, store, monkeypatch):
    calls = _count_calls(monkeypatch, magic.xi_classes)
    code, _ = run_cli(capsys, store, "reproduce")
    assert code == 0
    # once for each of the 6 Gaussian state sets
    assert sorted((states.lattice_name, states.norm) for states, *_ in calls if states.ring == "gaussian") == [
        ("BW16", 4), ("BW16", 6), ("E8", 2), ("E8", 4), ("E8", 6), ("E8", 8)
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["reproduce", "--format", "json"],
        ["reproduce", "--norms", "2"],
        ["orbits", "--norms", "3"],
        ["orbits", "--node-budget", "5"],
        ["project-e8", "--format", "json"],
        ["entangle", "--include-heavy"],
        ["shells", "--include-heavy"],
        ["shells", "--format", "json"],
        ["shells", "--threads", "2"],
        ["orbits", "--cache-dir", "x"],
        ["entangle", "--cache-dir", "x"],
        ["project-e8", "--cache-dir", "x"],
    ],
    ids=lambda argv: "_".join(a.lstrip("-") for a in argv),
)
def test_flags_a_subcommand_ignores_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-1", "1.5"])
def test_node_budget_must_be_a_positive_integer(capsys, budget):
    with pytest.raises(SystemExit) as exc:
        cli.main(["shells", "--lattice", "E8", "--norms", "2", "--node-budget", budget])
    assert exc.value.code == 2
    assert "argument --node-budget: " in capsys.readouterr().err


def _corrupt_cache(cache_dir):
    path = shell_cache_path(cache_dir, build_lattice("E8"), 2)
    with path.open("wb") as fh:  # one coefficient row, the zero vector
        np.save(fh, np.zeros((1, 8), dtype=np.int64))


def _cache_missing_a_pair(cache_dir):
    # E8 l=4 without one vector v and -v, neither of them its state's
    # representative: still closed under negation, but not under i
    shell = lattices.enumerate_shell(build_lattice("E8"), 4)
    for v, row in enumerate(shell.rows.tolist()):
        first = next(c for c in real_to_complex(row) if not c.is_zero())
        if first.re <= 0 < first.im:  # the second quadrant, and -v's first component the fourth
            break
    keep = ~((shell.coeffs == shell.coeffs[v]) | (shell.coeffs == -shell.coeffs[v])).all(axis=1)
    assert keep.sum() == shell.count - 2
    with shell_cache_path(cache_dir, shell.lattice, 4).open("wb") as fh:
        np.save(fh, shell.coeffs[keep])


@pytest.mark.parametrize(
    "argv, prepare, message",
    [
        pytest.param(
            ["shells", "--lattice", "BW16", "--norms", "6", "--node-budget", "50"],
            None,
            "node budget",
            id="node-budget",
        ),
        pytest.param(["shells", "--lattice", "E8", "--norms", "2"], _corrupt_cache, "wrong norm", id="corrupt-cache"),
        pytest.param(["census", "--lattice", "E8", "--norms", "3"], None, "E8 l=3 has no vectors", id="empty-shell"),
        pytest.param(
            ["census", "--lattice", "BW16", "--norms", "1000000000000000"], None, "int64 headroom", id="census-headroom"
        ),
        pytest.param(
            ["shells", "--lattice", "E8", "--norms", "10000000000000000"], None, "int64 headroom", id="shells-headroom"
        ),
        # l = 10^14 passes the guard; the search takes the 14,142,136 values
        # of its outermost coordinate in runs and stops at the budget
        pytest.param(
            ["census", "--lattice", "BW16", "--norms", "100000000000000", "--node-budget", "30000000"],
            None,
            "node budget",
            id="census-near-headroom",
        ),
        pytest.param(
            ["shells", "--lattice", "E8", "--norms", "4"],
            _cache_missing_a_pair,
            "2158 rows, but the shell has 2160",
            id="shells-not-unit-closed",
        ),
    ],
)
def test_user_errors_are_one_line(capsys, tmp_path, argv, prepare, message):
    if prepare is not None:
        prepare(tmp_path)
    code = cli.main(argv + ["--cache-dir", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("magiclattice: error: ") and message in err
    assert err.count("\n") == 1


def _cli_process(*argv):
    """Run the CLI in a child process, so that any traceback reaches its stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, "-m", "magiclattice.cli", *argv], env=env, capture_output=True, text=True, timeout=120
    )


def test_corrupt_cache_header_is_one_stderr_line(tmp_path):
    # "(240, 8)" becomes "(24L, 8)": numpy parses it as a Python 2 header,
    # with a UserWarning, and 24 rows are not the 240 of the shell
    cache = tmp_path / "cache"
    argv = ["shells", "--lattice", "E8", "--norms", "2", "--cache-dir", str(cache)]
    assert _cli_process(*argv).returncode == 0
    path = shell_cache_path(cache, build_lattice("E8"), 2)
    raw = bytearray(path.read_bytes())
    assert raw[62:64] == b"40"
    raw[63] = ord("L")
    path.write_bytes(raw)
    done = _cli_process(*argv)
    assert done.returncode == 2
    assert done.stderr.startswith("magiclattice: error: ") and done.stderr.count("\n") == 1


def test_unwritable_cache_dir_is_one_stderr_line(tmp_path):
    not_a_dir = tmp_path / "cache"
    not_a_dir.write_text("")
    done = _cli_process("shells", "--lattice", "E8", "--norms", "2", "--cache-dir", str(not_a_dir))
    assert done.returncode == 2
    path = shell_cache_path(not_a_dir, build_lattice("E8"), 2)
    assert done.stderr.startswith(f"magiclattice: error: cannot write shell cache {path}: ")
    assert done.stderr.count("\n") == 1
    assert os.listdir(tmp_path) == ["cache"] and not_a_dir.read_text() == ""


def test_closed_stdout_exits_2_without_a_traceback():
    # the reader stops after one line, as `| head -n 1` does, while the
    # 16,442-line csv is far past a pipe's buffer
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    argv = ["entangle", "--lattice", "BW16"]
    child = subprocess.Popen(
        [sys.executable, "-m", "magiclattice.cli", *argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert child.stdout.readline().startswith(b"state_id,")
    child.stdout.close()
    stderr = child.stderr.read()
    assert child.wait(timeout=120) == 2
    assert stderr == b""
