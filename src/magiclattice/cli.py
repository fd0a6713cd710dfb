"""Command-line pipeline: shell enumeration, censuses, orbits,
entanglement tables, the 2-D projection export, and a reproduce command
that runs every check of the other subcommands once.

Each subcommand runs its stage from ``pipeline`` and formats the record.
Only ``shells`` reads or writes shell cache files; every other stage
takes its shells from the search (``lattices.stream_shell``), and
``project-e8`` enumerates its two whole shells.  Exact rationals print as
num/den; floats print with 12 significant digits.  The process exits 1
iff any check fails, so the CLI doubles as an acceptance harness, and 2
on bad usage, an exceeded node budget, a norm past the int64 headroom, a
corrupt or unwritable shell cache (``shells`` only), an empty shell, or
a stdout closed by its reader (as by ``| head``).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from typing import Iterator, Optional, Sequence

from . import pipeline
from .lattices import (
    DEFAULT_NODE_BUDGET,
    EnumerationBudgetExceeded,
    HeadroomError,
    ShellCacheError,
    build_lattice,
    enumerate_shell,
)
from .states import EmptyShellError, StateSet, vector_states


def _fmt_float(x: float) -> str:
    return format(x, ".12g")


class Failures:
    def __init__(self):
        self.messages: list[str] = []

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.messages.append(message)
            print(f"FAIL {message}")
        return ok

    def check_all(self, checks: Sequence[pipeline.Check]) -> None:
        for ok, message in checks:
            self.check(ok, message)


def _positive_int_arg(value: str) -> int:
    try:
        number = int(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad integer {value!r}") from exc
    if number <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, not {number}")
    return number


def _norms_arg(value: str) -> tuple[int, ...]:
    return tuple(map(_positive_int_arg, value.split(",")))


# ---------------------------------------------------------------------------
# subcommands


def cmd_shells(args, failures: Failures) -> None:
    for norm in args.norms or pipeline.DEFAULT_NORMS[args.lattice]:
        result = pipeline.shell_stage(args.lattice, norm, args.cache_dir, args.node_budget)
        theta = result.theta
        verdict = "OK" if theta.ok else f"MISMATCH (expected {theta.expected})"
        key = (args.lattice, norm)
        extra = f"  [note: {pipeline.ROW_NOTES[key]}]" if key in pipeline.VECTOR_TOTAL_NOTES else ""
        print(
            f"{args.lattice} l={norm}: {result.count} vectors, theta {verdict} "
            f"({result.seconds:.2f}s){extra}"
        )
        failures.check_all(result.checks())


def cmd_census(args, failures: Failures) -> None:
    norms = args.norms or pipeline.DEFAULT_NORMS[args.lattice]
    if args.include_heavy:
        norms = tuple(norms) + tuple(
            n for n in pipeline.HEAVY_NORMS.get(args.lattice, ()) if n not in norms
        )
    rows = []
    for norm in norms:
        result = pipeline.census_stage(pipeline.search_rows(args.lattice, norm, args.node_budget))
        failures.check_all(result.checks())
        report = result.report
        rows.append(
            {
                "norm": norm,
                "classes": [
                    {
                        "xi2": str(row.xi2),
                        "m2": _fmt_float(row.m2),
                        "label": row.label,
                        "states": row.state_count,
                    }
                    for row in report.rows
                ],
                "state_count": report.state_count,
                "vector_count": report.vector_count,
                "note": result.note,
            }
        )
    table = {"table": pipeline.TABLE_IDS[args.lattice], "lattice": args.lattice, "rows": rows}
    if args.format == "json":
        print(json.dumps(table, indent=2))
        return
    writer = csv.writer(sys.stdout)
    writer.writerow(["table", "norm", "xi2", "m2", "label", "states", "vectors"])
    for row in rows:
        # a class dict holds the xi2, m2, label and states columns, in order
        writer.writerows(
            [table["table"], row["norm"], *cls.values(), row["vector_count"]]
            for cls in row["classes"]
        )
        if row["note"]:
            print(f"# note (l={row['norm']}): {row['note']}")


def cmd_orbits(args, failures: Failures) -> None:
    result = pipeline.orbits_stage(pipeline.shell_states)
    failures.check_all(result.checks())
    sizes, correspondence = result.orbit_sizes, result.correspondence
    if args.format == "json":
        report = {"group_size": result.group_size}
        report.update((f"orbit_sizes_l{norm}", s) for norm, s in sizes.items())
        report["correspondence"] = correspondence.ok
        report["vectors_covered"] = correspondence.vectors_covered
        print(json.dumps(report, indent=2))
        return
    print(f"clifford group size: {result.group_size}")
    print(f"stabiliser orbit sizes (l=3): {sizes[3]}")
    print(f"max magic orbit sizes (l=6): {sizes[6]}")
    print(
        f"correspondence with the 72 shortest vectors: "
        f"{correspondence.ok} ({correspondence.vectors_covered} covered)"
    )


_PROFILE_COLUMNS = ("C_AB", "C_AC", "C_BC", "C_A(BC)", "C_B(AC)", "C_C(AB)", "F3")


def _entangle_bw16(args, failures: Failures) -> None:
    result = pipeline.entangle_stage(pipeline.shell_states)
    failures.check_all(result.checks())
    profiles = []
    for state_set, census in result.censuses:
        for i, label in enumerate(census.labels):
            values = census.pairwise[i] + census.one_to_other[i] + (census.f3[i],)
            profiles.append((state_set.state_id(i), [_fmt_float(v) for v in values], label))
    if args.format == "json":
        keys = [c.replace("(", "_").replace(")", "") for c in _PROFILE_COLUMNS]
        print(
            json.dumps(
                {
                    "aggregates": result.aggregates,
                    "profiles": [
                        {"state_id": sid, **dict(zip(keys, values)), "class": label}
                        for sid, values, label in profiles
                    ],
                },
                indent=2,
            )
        )
        return
    writer = csv.writer(sys.stdout)
    writer.writerow(["state_id", *_PROFILE_COLUMNS, "class"])
    for sid, values, label in profiles:
        writer.writerow([sid, *values, label])
    print(f"# aggregate: {json.dumps(result.aggregates, sort_keys=True)}")


def _entangle_e8(args, failures: Failures) -> None:
    result = pipeline.two_qubit_stage(pipeline.shell_states)
    failures.check_all(result.checks())
    if args.format == "json":
        print(
            json.dumps(
                {
                    "histogram_C_sq": result.histogram,
                    "rows": [
                        {"state_id": sid, "C": _fmt_float(v), "C_sq": str(sq)}
                        for sid, v, sq in result.rows
                    ],
                },
                indent=2,
            )
        )
        return
    writer = csv.writer(sys.stdout)
    writer.writerow(["state_id", "C", "C_sq"])
    for sid, value, value_sq in result.rows:
        writer.writerow([sid, _fmt_float(value), str(value_sq)])
    histogram = json.dumps(result.histogram, sort_keys=True)
    print(f"# histogram of C^2 over max magic states: {histogram}")


def cmd_entangle(args, failures: Failures) -> None:
    (_entangle_e8 if args.lattice == "E8" else _entangle_bw16)(args, failures)


def cmd_project_e8(args, failures: Failures) -> None:
    """2-D orthogonal projection of the two shortest shells.

    Row k of the 2x8 matrix is (cos, sin) of k*pi/8 over 2; applied to
    the true (unscaled) lattice coordinates, one row per vector of each
    enumerated shell, in its sorted order.  A second-shell vector is
    tagged by its magic class, from its own Xi_2: that of its state.
    """
    cos = [math.cos(k * math.pi / 8) / 2 for k in range(8)]
    sin = [math.sin(k * math.pi / 8) / 2 for k in range(8)]
    writer = csv.writer(sys.stdout)
    writer.writerow(["shell", "x", "y", "tag"])
    tag_counts: dict[str, int] = {}
    for norm in (2, 4):
        shell = enumerate_shell(build_lattice("E8"), norm)
        tags = ["first"] * shell.count
        if norm == 4:
            tags = ["second-stab" if xi == 1 else "second-magic" for xi in vector_states(shell).xi2]
        for row, tag in zip(shell.rows.tolist(), tags):
            # ambient row is scaled by the lattice's integerization factor
            coords = [a / shell.lattice.scale for a in row]
            x = sum(c * w for c, w in zip(coords, cos))
            y = sum(c * w for c, w in zip(coords, sin))
            tag_counts[tag] = tag_counts.get(tag, 0) + 1
            writer.writerow([norm, _fmt_float(x), _fmt_float(y), tag])
    total = sum(tag_counts.values())
    failures.check(total == 240 + 2160, f"projection row count {total}")
    failures.check(
        tag_counts.get("second-stab", 0) == 240
        and tag_counts.get("second-magic", 0) == 1920,
        f"second-shell tag split {tag_counts}",
    )
    print(f"# tags: {json.dumps(tag_counts, sort_keys=True)}")


def cmd_reproduce(args, failures: Failures) -> None:
    """Run every stage once and print one PASS/FAIL line per check.

    Each shell is streamed once and no cache file is read or written.  A
    shell that a later stage reads keeps its states (shell_states), and
    its census is of them; every other census reads its search rows.
    """

    def status(checks: Sequence[pipeline.Check]) -> None:
        for ok, message in checks:
            if failures.check(ok, message):
                print(f"PASS {message}")

    kept = {}

    def kept_states(name: str, norm: int) -> Iterator[StateSet]:
        # a generator, so that the census times the states' making
        kept[name, norm] = pipeline.shell_states(name, norm)
        yield kept[name, norm]

    for name in ("E8", "BW16", "E6"):
        norms = pipeline.DEFAULT_NORMS[name]
        if args.include_heavy:
            norms += pipeline.HEAVY_NORMS.get(name, ())
        for norm in norms:
            if (name, norm) in pipeline.LATER_STAGE_SHELLS:
                state_sets = kept_states(name, norm)
            else:
                state_sets = pipeline.search_rows(name, norm)
            status(pipeline.census_stage(state_sets).checks())

    for stage in (pipeline.orbits_stage, pipeline.entangle_stage, pipeline.two_qubit_stage):
        status(stage(lambda name, norm: kept[name, norm]).checks())
    print("reproduce: all checks passed" if not failures.messages else
          f"reproduce: {len(failures.messages)} check(s) FAILED")


_FLAGS = {
    "--norms": dict(type=_norms_arg, help="comma-separated squared norms (default: per lattice)"),
    "--cache-dir": dict(
        help="shell cache directory, whose files shells writes, or reads and revalidates "
        "(default: MAGICLATTICE_CACHE or ~/.cache/magiclattice)"
    ),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--node-budget": dict(type=_positive_int_arg, default=DEFAULT_NODE_BUDGET),
    "--include-heavy": dict(action="store_true", help="include the BW16 l=8 row (about 1 s more)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magiclattice",
        description="Exact shells, magic censuses and entanglement tables "
        "for the E8 / BW16 / E6 lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help, flags, lattices=()):
        p = sub.add_parser(name, help=help)
        if lattices:
            p.add_argument("--lattice", choices=lattices, default=lattices[0])
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
        return p

    all_lattices = ("E8", "BW16", "E6")
    add("shells", cmd_shells, "enumerate (or load) shells, print counts",
        ("--norms", "--cache-dir", "--node-budget"), all_lattices)
    census = add("census", cmd_census, "exact SRE census tables",
                 ("--norms", "--node-budget", "--format", "--include-heavy"), all_lattices)
    add("orbits", cmd_orbits, "qutrit Clifford orbits and correspondence", ("--format",))
    add("entangle", cmd_entangle, "entanglement census (BW16) or 2-qubit table (E8)",
        ("--format",), ("BW16", "E8"))
    add("project-e8", cmd_project_e8, "2-D projection of the two shortest shells", ())
    reproduce = add("reproduce", cmd_reproduce, "run every check once, diff against expected tables",
                    ("--include-heavy",))
    # census and reproduce take their shells from the search, yet accept
    # --cache-dir because the benchmark harness (perfbench/run.py) passes it
    # to every command; the flag goes with the harness change that removes
    # the shell cache (ROADMAP.md)
    for p in (census, reproduce):
        p.add_argument("--cache-dir", help="unused: the shells come from the search, and no file is read or written")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    failures = Failures()
    try:
        args.func(args, failures)
        sys.stdout.flush()
    except (EnumerationBudgetExceeded, HeadroomError, ShellCacheError, EmptyShellError) as exc:
        print(f"magiclattice: error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so
        # the flush at interpreter exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    return 1 if failures.messages else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
