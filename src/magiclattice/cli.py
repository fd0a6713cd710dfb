"""Command-line pipeline: shell enumeration, censuses, orbits,
entanglement tables, the 2-D projection export, and a reproduce command
that diffs everything against the embedded expected tables.

Exact rationals print as num/den; floats print with 12 significant
digits.  The process exits nonzero iff any theta check, conservation
check, or expected-count assertion fails, so the CLI doubles as an
acceptance harness.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from fractions import Fraction
from typing import Optional, Sequence

from .clifford import generate_clifford_qutrit, orbit_partition, verify_e6_correspondence
from .entangle import entanglement_census, pairwise_concurrence_2qubit
from .lattices import (
    DEFAULT_NODE_BUDGET,
    build_lattice,
    default_cache_dir,
    ensure_shell,
    theta_check,
)
from .magic import sre_census, xi_batch_gaussian
from .states import StateSet, dedup, real_to_complex, vector_to_state

DEFAULT_NORMS = {"E8": (2, 4, 6, 8), "BW16": (4, 6), "E6": (3, 6, 9, 12, 15)}
HEAVY_NORMS = {"BW16": (8,)}
TABLE_IDS = {"E8": "T2", "BW16": "T3", "E6": "T4"}

# Frozen expected censuses (state counts per exact Xi_2 key).  These are
# the computed values, cross-checked against an independent dense-matrix
# oracle; rows where published reference tables disagree are flagged in
# ROW_NOTES below and the discrepancy follows the computation.
EXPECTED_CENSUS: dict[tuple[str, int], dict[str, int]] = {
    ("E8", 2): {"1": 60},
    ("E8", 4): {"1": 60, "7/16": 480},
    ("E8", 6): {"19/27": 720, "5/9": 960},
    ("E8", 8): {"1": 60, "139/256": 3840, "7/16": 480},
    ("BW16", 4): {"1": 1080},
    ("BW16", 6): {"2/9": 15360},
    ("BW16", 8): {"1": 1080, "7/16": 60480, "11/32": 69120},
    ("E6", 3): {"1": 12},
    ("E6", 6): {"1/2": 45},
    ("E6", 9): {"1": 12, "49/81": 108},
    ("E6", 12): {"1": 12, "17/32": 144},
    ("E6", 15): {"401/625": 216, "353/625": 144},
}

ROW_NOTES: dict[tuple[str, int], str] = {
    ("E6", 15): (
        "reference tables disagree internally on this row's vector total "
        "(1260 vs 2160); counts here follow the enumeration"
    ),
    ("E8", 6): (
        "the published reference table pairs these two state counts the "
        "other way round (960 at 19/27, 720 at 5/9); counts here follow "
        "the computed census, confirmed by an independent dense-matrix oracle"
    ),
    ("E6", 9): (
        "reference prose lists 401/625 for the 108 non-stabiliser states "
        "but the reference table column and the computed census give 49/81"
    ),
}

EXPECTED_STAB_CLASSES = {"I": 216, "II": 432, "III": 432}
EXPECTED_MAGIC_CLASSES = {"A": 1536, "B": 13824}
EXPECTED_2QUBIT_HIST = {"1/4": 192, "1/2": 288}
EXPECTED_ORBITS = {3: [12], 6: [36, 9]}


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

    @property
    def exit_code(self) -> int:
        return 1 if self.messages else 0


def _norms_arg(value: str) -> tuple[int, ...]:
    try:
        norms = tuple(int(part) for part in value.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad norm list {value!r}") from exc
    if any(n <= 0 for n in norms):
        raise argparse.ArgumentTypeError("norms must be positive")
    return norms


def _load_state_set(name: str, norm: int, args) -> StateSet:
    lattice = build_lattice(name)
    shell = ensure_shell(
        lattice,
        norm,
        cache_dir=args.cache_dir,
        node_budget=args.node_budget,
        threads=args.threads,
    )
    return dedup(shell)


# ---------------------------------------------------------------------------
# subcommands


def cmd_shells(args, failures: Failures) -> None:
    lattice = build_lattice(args.lattice)
    norms = args.norms or DEFAULT_NORMS[args.lattice]
    for norm in norms:
        t0 = time.time()
        shell = ensure_shell(
            lattice,
            norm,
            cache_dir=args.cache_dir,
            node_budget=args.node_budget,
            threads=args.threads,
        )
        check = theta_check(shell)
        verdict = "OK" if check.ok else f"MISMATCH (expected {check.expected})"
        # only the E6 l=15 note concerns a raw vector total
        note = ROW_NOTES.get((args.lattice, norm)) if (args.lattice, norm) == ("E6", 15) else None
        extra = f"  [note: {note}]" if note else ""
        print(
            f"{args.lattice} l={norm}: {shell.count} vectors, theta {verdict} "
            f"({time.time() - t0:.2f}s){extra}"
        )
        failures.check(check.ok, f"theta check {args.lattice} l={norm}")
        expected = lattice.known_counts.get(norm)
        if expected is not None:
            failures.check(
                shell.count == expected,
                f"shell count {args.lattice} l={norm}: {shell.count} != {expected}",
            )


def _census_rows(name: str, norms: Sequence[int], args, failures: Failures):
    rows = []
    for norm in norms:
        state_set = _load_state_set(name, norm, args)
        report = sre_census(state_set)
        histogram = {str(row.xi2): row.state_count for row in report.rows}
        conserved = state_set.vector_count == state_set.count * state_set.uniform_multiplicity
        failures.check(conserved, f"conservation {name} l={norm}")
        expected = EXPECTED_CENSUS.get((name, norm))
        if expected is not None:
            failures.check(
                histogram == expected,
                f"census {name} l={norm}: {histogram} != {expected}",
            )
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
                "note": ROW_NOTES.get((name, norm)),
            }
        )
    return rows


def cmd_census(args, failures: Failures) -> None:
    norms = args.norms or DEFAULT_NORMS[args.lattice]
    if args.include_heavy:
        norms = tuple(norms) + tuple(
            n for n in HEAVY_NORMS.get(args.lattice, ()) if n not in norms
        )
    rows = _census_rows(args.lattice, norms, args, failures)
    table = {"table": TABLE_IDS[args.lattice], "lattice": args.lattice, "rows": rows}
    if args.format == "json":
        print(json.dumps(table, indent=2))
        return
    writer = csv.writer(sys.stdout)
    writer.writerow(["table", "norm", "xi2", "m2", "label", "states", "vectors"])
    for row in rows:
        for cls in row["classes"]:
            writer.writerow(
                [
                    table["table"],
                    row["norm"],
                    cls["xi2"],
                    cls["m2"],
                    cls["label"],
                    cls["states"],
                    row["vector_count"],
                ]
            )
        if row["note"]:
            print(f"# note (l={row['norm']}): {row['note']}")


def cmd_orbits(args, failures: Failures) -> None:
    group = generate_clifford_qutrit()
    failures.check(len(group) == 216, f"group size {len(group)} != 216")
    report = {"group_size": len(group)}
    for norm in (3, 6):
        state_set = _load_state_set("E6", norm, args)
        orbits = orbit_partition(state_set, group)
        sizes = [o.size for o in orbits]
        failures.check(
            sizes == EXPECTED_ORBITS[norm],
            f"orbit sizes l={norm}: {sizes} != {EXPECTED_ORBITS[norm]}",
        )
        report[f"orbit_sizes_l{norm}"] = sizes
    correspondence = verify_e6_correspondence()
    failures.check(correspondence.ok, "stabiliser/shell correspondence")
    report["correspondence"] = correspondence.ok
    report["vectors_covered"] = correspondence.vectors_covered
    if args.format == "json":
        print(json.dumps(report, indent=2))
    else:
        print(f"clifford group size: {report['group_size']}")
        print(f"stabiliser orbit sizes (l=3): {report['orbit_sizes_l3']}")
        print(f"max magic orbit sizes (l=6): {report['orbit_sizes_l6']}")
        print(
            f"correspondence with the 72 shortest vectors: "
            f"{correspondence.ok} ({correspondence.vectors_covered} covered)"
        )


_PROFILE_COLUMNS = ("C_AB", "C_AC", "C_BC", "C_A(BC)", "C_B(AC)", "C_C(AB)", "F3")


def _entangle_bw16(args, failures: Failures) -> None:
    profiles = []
    aggregates: dict[str, int] = {}
    for norm in (4, 6):
        state_set = _load_state_set("BW16", norm, args)
        census = entanglement_census(state_set)
        for i, label in enumerate(census.labels):
            values = census.pairwise[i] + census.one_to_other[i] + (census.f3[i],)
            profiles.append((state_set.state_id(i), [_fmt_float(v) for v in values], label))
            aggregates[label] = aggregates.get(label, 0) + 1
    stab = {k: aggregates.get(k, 0) for k in ("I", "II", "III")}
    magic = {k: aggregates.get(k, 0) for k in ("A", "B")}
    failures.check(stab == EXPECTED_STAB_CLASSES, f"stabiliser classes {stab}")
    failures.check(magic == EXPECTED_MAGIC_CLASSES, f"max magic classes {magic}")
    failures.check(
        aggregates.get("Unclassified", 0) == 0,
        f"unclassified states: {aggregates.get('Unclassified', 0)}",
    )
    if args.format == "json":
        keys = [c.replace("(", "_").replace(")", "") for c in _PROFILE_COLUMNS]
        print(
            json.dumps(
                {
                    "aggregates": aggregates,
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
    print(f"# aggregate: {json.dumps(aggregates, sort_keys=True)}")


def _entangle_e8(args, failures: Failures) -> None:
    state_set = _load_state_set("E8", 4, args)
    xi2_values = xi_batch_gaussian(state_set.states, alphas=(2,))[2]
    rows = []
    histogram: dict[str, int] = {}
    for i, (state, xi) in enumerate(zip(state_set.states, xi2_values)):
        if xi != Fraction(7, 16):
            continue
        value, value_sq = pairwise_concurrence_2qubit(state)
        key = str(value_sq)
        histogram[key] = histogram.get(key, 0) + 1
        rows.append((state_set.state_id(i), value, value_sq))
    failures.check(
        histogram == EXPECTED_2QUBIT_HIST,
        f"2-qubit concurrence histogram {histogram}",
    )
    if args.format == "json":
        print(
            json.dumps(
                {
                    "histogram_C_sq": histogram,
                    "rows": [
                        {"state_id": sid, "C": _fmt_float(v), "C_sq": str(sq)}
                        for sid, v, sq in rows
                    ],
                },
                indent=2,
            )
        )
        return
    writer = csv.writer(sys.stdout)
    writer.writerow(["state_id", "C", "C_sq"])
    for sid, value, value_sq in rows:
        writer.writerow([sid, _fmt_float(value), str(value_sq)])
    print(f"# histogram of C^2 over max magic states: {json.dumps(histogram, sort_keys=True)}")


def cmd_entangle(args, failures: Failures) -> None:
    if args.lattice == "E8":
        _entangle_e8(args, failures)
    elif args.lattice == "BW16":
        _entangle_bw16(args, failures)
    else:
        raise SystemExit("entangle supports --lattice BW16 (default) or E8")


def cmd_project_e8(args, failures: Failures) -> None:
    """2-D orthogonal projection of the two shortest shells.

    Row k of the 2x8 matrix is (cos, sin) of k*pi/8 over 2; applied to
    the true (unscaled) lattice coordinates.
    """
    cos = [math.cos(k * math.pi / 8) / 2 for k in range(8)]
    sin = [math.sin(k * math.pi / 8) / 2 for k in range(8)]
    lattice = build_lattice("E8")
    writer = csv.writer(sys.stdout)
    writer.writerow(["shell", "x", "y", "tag"])
    total = 0
    tag_counts: dict[str, int] = {}
    for norm, tag_base in ((2, "first"), (4, "second")):
        shell = ensure_shell(
            lattice, norm, cache_dir=args.cache_dir, node_budget=args.node_budget,
            threads=args.threads,
        )
        xi_by_components = {}
        if norm == 4:
            state_set = dedup(shell)
            xi2_values = xi_batch_gaussian(state_set.states, alphas=(2,))[2]
            for state, xi in zip(state_set.states, xi2_values):
                xi_by_components[state.components] = xi
        for vec in shell.vectors:
            # ambient row is scaled by the lattice's integerization factor
            coords = [a / lattice.scale for a in vec.ambient]
            x = sum(c * w for c, w in zip(coords, cos))
            y = sum(c * w for c, w in zip(coords, sin))
            if norm == 2:
                tag = tag_base
            else:
                state = vector_to_state(real_to_complex(vec.ambient))
                xi = xi_by_components[state.components]
                tag = "second-stab" if xi == 1 else "second-magic"
            tag_counts[tag] = tag_counts.get(tag, 0) + 1
            writer.writerow([norm, _fmt_float(x), _fmt_float(y), tag])
            total += 1
    failures.check(total == 240 + 2160, f"projection row count {total}")
    failures.check(
        tag_counts.get("second-stab", 0) == 240
        and tag_counts.get("second-magic", 0) == 1920,
        f"second-shell tag split {tag_counts}",
    )
    print(f"# tags: {json.dumps(tag_counts, sort_keys=True)}")


def cmd_reproduce(args, failures: Failures) -> None:
    """Run the full pipeline and diff against the embedded tables."""

    def status(ok: bool, label: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {label}")

    for name in ("E8", "BW16", "E6"):
        lattice = build_lattice(name)
        norms = DEFAULT_NORMS[name]
        if args.include_heavy:
            norms = tuple(norms) + HEAVY_NORMS.get(name, ())
        for norm in norms:
            t0 = time.time()
            shell = ensure_shell(
                lattice, norm, cache_dir=args.cache_dir,
                node_budget=args.node_budget, threads=args.threads,
            )
            ok = failures.check(
                shell.count == lattice.known_counts[norm]
                and theta_check(shell).ok,
                f"shell {name} l={norm}",
            )
            status(ok, f"shell {name} l={norm}: {shell.count} vectors ({time.time()-t0:.2f}s)")
            state_set = dedup(shell)
            report = sre_census(state_set)
            histogram = {str(row.xi2): row.state_count for row in report.rows}
            expected = EXPECTED_CENSUS[(name, norm)]
            ok = failures.check(
                histogram == expected, f"census {name} l={norm}: {histogram}"
            )
            note = ROW_NOTES.get((name, norm))
            status(ok, f"census {name} l={norm}: {histogram}" + (f"  [note: {note}]" if note else ""))

    group = generate_clifford_qutrit()
    ok = failures.check(len(group) == 216, "clifford group size")
    status(ok, f"clifford group size: {len(group)}")
    for norm in (3, 6):
        state_set = _load_state_set("E6", norm, args)
        sizes = [o.size for o in orbit_partition(state_set, group)]
        ok = failures.check(sizes == EXPECTED_ORBITS[norm], f"orbits l={norm}")
        status(ok, f"orbit sizes l={norm}: {sizes}")
    correspondence = verify_e6_correspondence()
    ok = failures.check(correspondence.ok, "correspondence")
    status(ok, f"correspondence: {correspondence.vectors_covered} vectors covered")

    aggregates: dict[str, int] = {}
    for norm in (4, 6):
        census = entanglement_census(_load_state_set("BW16", norm, args))
        for key, count in census.histogram().items():
            aggregates[key] = aggregates.get(key, 0) + count
    stab = {k: aggregates.get(k, 0) for k in ("I", "II", "III")}
    magic = {k: aggregates.get(k, 0) for k in ("A", "B")}
    ok = failures.check(stab == EXPECTED_STAB_CLASSES, f"stabiliser classes {stab}")
    status(ok, f"entanglement stabiliser classes: {stab}")
    ok = failures.check(magic == EXPECTED_MAGIC_CLASSES, f"magic classes {magic}")
    status(ok, f"entanglement max magic classes: {magic}")

    state_set = _load_state_set("E8", 4, args)
    xi2_values = xi_batch_gaussian(state_set.states, alphas=(2,))[2]
    histogram: dict[str, int] = {}
    for state, xi in zip(state_set.states, xi2_values):
        if xi == Fraction(7, 16):
            _, value_sq = pairwise_concurrence_2qubit(state)
            histogram[str(value_sq)] = histogram.get(str(value_sq), 0) + 1
    ok = failures.check(histogram == EXPECTED_2QUBIT_HIST, f"2-qubit histogram {histogram}")
    status(ok, f"2-qubit max magic C^2 histogram: {histogram}")

    print("reproduce: all checks passed" if not failures.messages else
          f"reproduce: {len(failures.messages)} check(s) FAILED")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magiclattice",
        description="Exact shells, magic censuses and entanglement tables "
        "for the E8 / BW16 / E6 lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, lattice_default: Optional[str] = None, lattice_choices=("E8", "BW16", "E6")):
        if lattice_default is not None:
            p.add_argument("--lattice", choices=lattice_choices, default=lattice_default)
        p.add_argument("--norms", type=_norms_arg, default=None,
                       help="comma-separated squared norms (default: per lattice)")
        p.add_argument("--cache-dir", default=None,
                       help="shell cache directory (default: MAGICLATTICE_CACHE or ~/.cache/magiclattice)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--threads", type=int, default=1)
        p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET)
        p.add_argument("--include-heavy", action="store_true",
                       help="include the minutes-scale BW16 l=8 row")

    p = sub.add_parser("shells", help="enumerate (or load) shells, print counts")
    add_common(p, lattice_default="E8")
    p.set_defaults(func=cmd_shells)

    p = sub.add_parser("census", help="exact SRE census tables")
    add_common(p, lattice_default="E8")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("orbits", help="qutrit Clifford orbits and correspondence")
    add_common(p)
    p.set_defaults(func=cmd_orbits)

    p = sub.add_parser("entangle", help="entanglement census (BW16) or 2-qubit table (E8)")
    add_common(p, lattice_default="BW16", lattice_choices=("BW16", "E8"))
    p.set_defaults(func=cmd_entangle)

    p = sub.add_parser("project-e8", help="2-D projection of the two shortest shells")
    add_common(p)
    p.set_defaults(func=cmd_project_e8)

    p = sub.add_parser("reproduce", help="run everything, diff against expected tables")
    add_common(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.cache_dir is None:
        args.cache_dir = default_cache_dir()
    failures = Failures()
    args.func(args, failures)
    return failures.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
