"""End-to-end benchmark of the magiclattice command-line pipeline.

Runs one workload for a time window and prints, as its last stdout line,
one JSON object ``{"correct", "attempted", "failed", "metrics"}``::

    python3 perfbench/run.py --workload reproduce-warm --seed 1 --seconds 15 --trace 0

Every execution is the real CLI (``python3 -m magiclattice.cli``, from
``src/`` of the checkout this file sits in) in a fresh process with its
own empty or pre-filled cache directory, one at a time (a closed loop
with one client).  Executions repeat until the window is used up, at
least once; each one's exit code and stdout are checked.

``--trace 0`` reports the end-to-end metrics, measured from outside the
process: wall time, user+sys CPU time and peak RSS of the command, plus
set-up time (fresh interpreters that import the package and build the
workload's lattices).  These times are scaled to a reference CPU speed
measured on the same CPU while they run (see ``Probe``); the raw seconds
are printed in the summary.  ``--trace 1`` first self-tests the tracer on a tiny
command, then repeats executions traced in-process by
``perfbench/traced.py`` and reports the per-layer metrics, the tracing
overhead and a seeded exact-oracle sample.  The seed picks only that
sample: the shells are fixed by the paper.

Metric names and units come from ``BENCHMARK.json`` at the checkout root;
``perfbench/README.md`` says which metric each workload should move.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_run"

# Every child is killed at this point so that the benchmark itself ends
# within 180 s; a killed execution counts as failed.
DEADLINE_S = 170.0
SETUP_REPS = 3
SETUP_CODE = "import sys, magiclattice\nfor name in sys.argv[1:]:\n    magiclattice.build_lattice(name)\n"

# The probe does a fixed chunk of pure Python (about 2.5 ms) every 50 ms
# and writes when it ended and the CPU time it took (CPU time, so that time
# spent preempted by the measured command does not count).
PROBE_CODE = (
    "import sys, time\nout = open(sys.argv[1], 'w', buffering=1)\nwhile True:\n"
    "    t = time.process_time()\n    s = 0\n    for i in range(20_000):\n        s += i * i\n"
    "    out.write(f'{time.monotonic()} {time.process_time() - t}\\n')\n    time.sleep(0.05)\n"
)
NOMINAL_CHUNK_S = 0.0025  # about the median chunk time on the 2-core Xeon VM this was written on

TIMING_TOKEN = re.compile(r" \(\d+\.\d+s\)")
PAPER_BW16_L8 = {"1": 1080, "7/16": 60480, "11/32": 69120}


def check_reproduce(out: str) -> bool:
    """stdout, with the ``(N.NNs)`` timing tokens removed, is the reference."""
    return TIMING_TOKEN.sub("", out) == (HERE / "expected" / "reproduce.txt").read_text()


def check_census_bw16_l8(out: str) -> bool:
    """The JSON census row is the paper's BW16 l=8 row (table T3)."""
    try:
        (row,) = json.loads(out)["rows"]
        histogram = {c["xi2"]: c["states"] for c in row["classes"]}
        return (
            row["norm"] == 8
            and histogram == PAPER_BW16_L8
            and row["vector_count"] == 522720
            and row["state_count"] == 130680
        )
    except (ValueError, KeyError, TypeError):
        return False


def check_selftest(out: str) -> bool:
    return TIMING_TOKEN.sub("", out) == "E8 l=2: 240 vectors, theta OK\n"


@dataclass(frozen=True)
class Workload:
    cli_args: tuple[str, ...]
    lattices: tuple[str, ...]  # built by the setup_s interpreters
    warm: bool  # fill the cache with these lattices' shells during untimed set-up
    check: Callable[[str], bool]


REPRODUCE = ("reproduce",)
WORKLOADS = {
    "reproduce-cold": Workload(REPRODUCE, ("E8", "BW16", "E6"), False, check_reproduce),
    "reproduce-warm": Workload(REPRODUCE, ("E8", "BW16", "E6"), True, check_reproduce),
    "census-bw16-l8": Workload(
        ("census", "--lattice", "BW16", "--norms", "8", "--format", "json"),
        ("BW16",),
        False,
        check_census_bw16_l8,
    ),
}
SELFTEST_ARGS = ("shells", "--lattice", "E8", "--norms", "2")
SELFTEST_SPANS = {"cli.main", "lattices.ensure_shell", "lattices.enumerate_shell", "lattices.save_shell"}


@dataclass
class Execution:
    start: float  # time.monotonic()
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    ok: bool
    trace: Optional[dict] = None


class Probe:
    """Samples how fast the measuring CPU runs Python while commands run.

    On a shared host the same CPU-bound command drifts by 20 % or more
    within minutes, in wall and CPU time alike, and no hardware counters
    are exposed.  The probe and the measured commands are pinned to one
    CPU; the probe wakes every 50 ms for one short fixed chunk of work (it
    takes about 5 % of the CPU, the same for every commit).  A time times
    ``speed`` over the same interval (nominal over the median chunk time)
    is that time at the reference speed: host drift slows the command and
    the chunks alike and cancels, a change to the program does not."""

    def __init__(self, bench: "Bench"):
        self.path = bench.workdir / "probe.txt"
        self.proc = bench.popen([sys.executable, "-c", PROBE_CODE, str(self.path)])
        ready = time.monotonic() + 10.0
        while len(self.chunks(0.0, float("inf"))) < 3 and time.monotonic() < ready:
            time.sleep(0.05)

    def chunks(self, start: float, end: float) -> list[float]:
        durations = []
        if self.path.exists():
            for line in self.path.read_text().splitlines():
                fields = line.split()
                if len(fields) == 2 and start <= float(fields[0]) <= end:
                    durations.append(float(fields[1]))
        return durations

    def speed(self, start: float, end: float) -> float:
        durations = self.chunks(start, end)
        if self.proc.poll() is not None or len(durations) < 5:
            raise RuntimeError("the speed probe stopped")
        return NOMINAL_CHUNK_S / statistics.median(durations)

    def stop(self) -> None:
        self.proc.kill()
        self.proc.wait()


class Bench:
    """One benchmark invocation: its scratch directory, child environment
    and deadline.  Children run one at a time and are always reaped."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0
        self.cpu: Optional[int] = None  # pin children to this CPU
        env = {k: v for k, v in os.environ.items() if k not in ("MAGICLATTICE_CACHE", "PYTHONPATH")}
        env["PYTHONPATH"] = str(SRC)
        self.env = env

    def fresh_dir(self, label: str) -> Path:
        self.count += 1
        path = self.workdir / f"{self.count:03d}-{label}"
        path.mkdir(parents=True)
        return path

    def popen(self, argv: list[str], **kwargs) -> subprocess.Popen:
        cpu = self.cpu
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        return subprocess.Popen(argv, env=self.env, cwd=ROOT, preexec_fn=pin, **kwargs)

    def spawn(self, argv: list[str], out_path: Path) -> tuple[float, float, float, float, int]:
        """Run argv to completion; return its start (monotonic), wall s,
        user+sys s, peak RSS MiB (largest single process, from wait4) and
        the exit code."""
        with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
            start = time.monotonic()
            proc = self.popen(argv, stdout=out, stderr=err)
        killer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return start, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode

    def execute(
        self,
        cli_args: tuple[str, ...],
        check: Callable[[str], bool],
        template: Optional[Path] = None,
        trace_seed: Optional[int] = None,
    ) -> Execution:
        """One CLI command with its own cache dir (a copy of template, if
        given), untraced or, with trace_seed, in-process under traced.py."""
        cache = self.fresh_dir("cache")
        if template is not None:
            shutil.copytree(template, cache, dirs_exist_ok=True)
        out_path = cache.with_name(cache.name + ".out")
        trace_path = cache.with_name(cache.name + ".trace.json")
        if trace_seed is None:
            argv = [sys.executable, "-m", "magiclattice.cli"]
        else:
            argv = [sys.executable, str(HERE / "traced.py"), "--seed", str(trace_seed), "--out", str(trace_path), "--"]
        start, wall, cpu, rss, code = self.spawn([*argv, *cli_args, "--cache-dir", str(cache)], out_path)
        shutil.rmtree(cache)
        ok = code == 0 and check(out_path.read_text())
        if not ok:
            err = out_path.with_suffix(".err").read_text(errors="replace")
            print(f"execution failed (exit {code}): {' '.join(cli_args)}\n{err[-2000:]}", file=sys.stderr)
        trace = json.loads(trace_path.read_text()) if ok and trace_seed is not None else None
        return Execution(start, wall, cpu, rss, ok, trace)

    def fill_cache(self, lattices: tuple[str, ...]) -> Path:
        """Untimed workload set-up: enumerate and save every default shell."""
        template = self.fresh_dir("template")
        for name in lattices:
            argv = [sys.executable, "-m", "magiclattice.cli", "shells", "--lattice", name, "--cache-dir", str(template)]
            if self.spawn(argv, template.with_suffix(".out"))[-1] != 0:
                raise RuntimeError(f"filling the cache with {name} shells failed")
        return template

    def setup_s(self, lattices: tuple[str, ...], probe: Probe) -> tuple[float, float]:
        """Median wall of SETUP_REPS fresh set-up interpreters, raw and at
        the reference speed over all of them."""
        walls = []
        begin = time.monotonic()
        for _ in range(SETUP_REPS):
            _, wall, _, _, code = self.spawn(
                [sys.executable, "-c", SETUP_CODE, *lattices], self.workdir / "setup.out"
            )
            if code != 0:
                raise RuntimeError("set-up interpreter failed")
            walls.append(wall)
        raw = statistics.median(walls)
        return raw, raw * probe.speed(begin, time.monotonic())


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n/a (n={n}, needs >= 11)"
    return f"p{100 * (n - 10) / n:.1f}={sorted(values)[n - 11]:.4f} (n={n})"


def selftest(bench: Bench, seed: int) -> bool:
    """Trace a tiny command: spans nest, and the layer self times plus
    cli.self_s add up to the traced wall (traced.py raises otherwise)."""
    run = bench.execute(SELFTEST_ARGS, check_selftest, trace_seed=seed)
    if not run.ok:
        return False
    metrics = run.trace["metrics"]
    names = {span["name"] for span in run.trace["spans"]}
    layers = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    return (
        names == SELFTEST_SPANS
        and metrics["lattices.cache_misses"] == 1
        and abs(layers - metrics["trace.wall_s"]) <= 1e-6
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "magiclattice" / "cli.py").is_file():
        print(f"error: no magiclattice sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    workdir = SCRATCH / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    bench = Bench(workdir, started + DEADLINE_S)
    probe = None
    try:
        template = bench.fill_cache(workload.lattices) if workload.warm else None
        load_before = os.getloadavg()
        if args.trace:
            selftest_ok = selftest(bench, args.seed)
        else:
            selftest_ok = True
            bench.cpu = min(os.sched_getaffinity(0))
            probe = Probe(bench)
            setup_raw, setup = bench.setup_s(workload.lattices, probe)
        runs: list[Execution] = []
        speeds: list[float] = []
        window = time.monotonic()
        while True:
            run = bench.execute(workload.cli_args, workload.check, template, args.seed if args.trace else None)
            runs.append(run)
            if probe is not None:
                speeds.append(probe.speed(run.start, run.start + run.wall_s))
            elapsed = time.monotonic() - window
            if elapsed >= args.seconds or time.monotonic() + elapsed / len(runs) > bench.deadline:
                break
        load_after = os.getloadavg()
        if args.trace:
            spans = [r.trace["spans"] for r in runs if r.ok]
            (SCRATCH / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    finally:
        if probe is not None:
            probe.stop()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(not r.ok for r in runs) + (not selftest_ok)
    attempted = len(runs) + args.trace
    good = [r for r in runs if r.ok]
    metrics: dict[str, float] = {}
    oracle_mismatches = 0
    if good and args.trace:
        traces = [r.trace["metrics"] for r in good]
        metrics = {name: statistics.median(t[name] for t in traces) for name in units}
        oracle_mismatches = sum(t["magic.oracle_mismatches"] for t in traces)
    elif good:
        scaled = {
            "wall_s": [r.wall_s * v for r, v in zip(runs, speeds) if r.ok],
            "cpu_s": [r.cpu_s * v for r, v in zip(runs, speeds) if r.ok],
            "peak_rss_mb": [r.peak_rss_mb for r in good],
        }
        metrics = {name: statistics.median(values) for name, values in scaled.items()}
        metrics["setup_s"] = setup

    print(f"workload {args.workload}  seed {args.seed}  window {args.seconds:g} s  trace {args.trace}")
    print(
        f"env nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={importlib.metadata.version('numpy')} "
        f"loadavg_before={' '.join(f'{x:.2f}' for x in load_before)} "
        f"loadavg_after={' '.join(f'{x:.2f}' for x in load_after)}"
    )
    if not args.trace and good:
        print("probe speed per execution: " + " ".join(f"{v:.3f}" for v in speeds))
        for name, values in scaled.items():
            raw = statistics.median(getattr(r, name) for r in good)
            print(f"{name:12s} median {metrics[name]:.4f} {units[name]}  raw {raw:.4f}  tail {tail(values)}")
        print(f"{'setup_s':12s} median {setup:.4f} s  raw {setup_raw:.4f}  (n={SETUP_REPS} interpreters)")
    else:
        for name, value in metrics.items():
            print(f"{name:36s} {value:.6g} {units[name]}")
    print(f"{'failed_frac':12s} {failed / attempted:.4f}  ({failed} of {attempted} attempted)")

    correct = failed == 0 and oracle_mismatches == 0 and set(metrics) == set(units)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
