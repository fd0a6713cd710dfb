"""Run one magiclattice CLI command in this process, with a span recorded
at the public boundary of each pipeline layer.

The spans are recorded from outside the package: every ``magiclattice.*``
module that binds a traced function gets a wrapper under the same name,
so calls made through ``from .lattices import ensure_shell`` (as the CLI
does) are traced too.  Spans (name, start, end, parent, info) stay in
memory; when the command has finished they are checked, reduced to the
per-layer metrics and written out as JSON together with the result of a
seeded exact-oracle sample (the batched Xi_2 of a few states per batch
call, compared with the scalar ``xi_alpha``).

Usage::

    PYTHONPATH=src python3 perfbench/traced.py --seed N --out FILE -- <cli args>

The CLI's own stdout is passed through unchanged, so the caller can apply
the same output check as for an untraced run.  The exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import random
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

# Layer module -> public functions whose calls become spans.  The ``exact``
# module only runs inside these, so it has no boundary of its own here.
TRACED = {
    "lattices": ("ensure_shell", "enumerate_shell", "save_shell", "load_shell"),
    "states": ("dedup",),
    "magic": ("sre_census", "xi_batch_gaussian"),
    "entangle": ("entanglement_census", "pairwise_concurrence_2qubit"),
    "clifford": ("generate_clifford_qutrit", "orbit_partition", "verify_e6_correspondence"),
}
LAYERS = tuple(TRACED) + ("cli",)
ROOT = "cli.main"
ORACLE_PER_BATCH = 8


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    info: dict = field(default_factory=dict)


def _shell_key(lattice, norm) -> str:
    return f"{lattice.name}/{norm}"


class Tracer:
    """Holds the spans of one traced command and the oracle sample."""

    def __init__(self, seed: int):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._rng = random.Random(seed)
        self.oracle_sample: list[tuple[object, object]] = []
        self.bookkeeping_s = 0.0  # time the wrappers spend outside the traced call

    # -- counts taken at the boundary, after the span has closed ----------

    def _info(self, name: str, bound: inspect.BoundArguments, result) -> dict:
        a = bound.arguments
        if name == "ensure_shell":
            return {"shell": _shell_key(a["lattice"], a["norm"])}
        if name == "enumerate_shell":
            return {"vectors": result.count}
        if name == "load_shell":
            return {"rows": result.count}
        if name == "save_shell":
            return {"bytes": os.path.getsize(a["path"])}
        if name == "dedup":
            shell = a["shell"]
            return {"shell": _shell_key(shell.lattice, shell.norm), "vectors": shell.count}
        if name == "xi_batch_gaussian":
            states = a["states"]
            if 2 in result:
                picks = self._rng.sample(range(len(states)), min(ORACLE_PER_BATCH, len(states)))
                self.oracle_sample.extend((states[i], result[2][i]) for i in picks)
            return {"states": len(states)}
        if name == "entanglement_census":
            return {"states": len(result.labels), "unclassified": result.other}
        return {}

    def wrap(self, layer: str, fn: Callable) -> Callable:
        name = f"{layer}.{fn.__name__}"
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = Span(name, 0.0, 0.0, parent)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            span.info = self._info(fn.__name__, signature.bind(*args, **kwargs), result)
            self.bookkeeping_s += (span.start - entered) + (time.perf_counter() - span.end)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of a traced function in the package's
        modules."""
        import importlib

        import magiclattice.cli  # noqa: F401  (the CLI binds most names)

        # keyed by id(): each wrapper keeps its original alive, so ids stay unique
        wrappers = {}
        for layer, names in TRACED.items():
            module = importlib.import_module(f"magiclattice.{layer}")
            for fname in names:
                fn = getattr(module, fname)
                wrappers[id(fn)] = self.wrap(layer, fn)
        for modname, module in list(sys.modules.items()):
            if modname != "magiclattice" and not modname.startswith("magiclattice."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    setattr(module, attr, wrappers[id(value)])

    def run_cli(self, argv: list[str]) -> int:
        from magiclattice import cli

        root = Span(ROOT, 0.0, 0.0, None)
        self.spans.append(root)
        self._stack.append(0)
        root.start = time.perf_counter()
        try:
            code = cli.main(argv)
        finally:
            root.end = time.perf_counter()
            self._stack.pop()
        sys.stdout.flush()
        return code

    def check_oracle(self) -> tuple[int, int]:
        from magiclattice.magic import xi_alpha

        mismatches = sum(1 for state, xi2 in self.oracle_sample if xi_alpha(state, 2) != xi2)
        return len(self.oracle_sample), mismatches


def check_nesting(spans: list[Span]) -> None:
    """Raise unless there is one root, each span lies inside its parent,
    and the children of one span do not overlap."""
    if not spans or spans[0].parent is not None or spans[0].name != ROOT:
        raise ValueError("the first span must be the root")
    last_child_end: dict[int, float] = {}
    for index, span in enumerate(spans[1:], start=1):
        if span.parent is None or not 0 <= span.parent < index:
            raise ValueError(f"span {index} ({span.name}) has no earlier parent")
        parent = spans[span.parent]
        if not (parent.start <= span.start <= span.end <= parent.end):
            raise ValueError(f"span {index} ({span.name}) is not inside its parent")
        if span.start < last_child_end.get(span.parent, parent.start):
            raise ValueError(f"span {index} ({span.name}) overlaps a sibling")
        last_child_end[span.parent] = span.end


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced command.

    ``<layer>.self_s`` is the time spent in that layer's spans minus the
    time covered by their child spans; ``cli.self_s`` is the root's own
    time.  Together they add up to ``trace.wall_s``, which is checked.
    """
    check_nesting(spans)
    duration = [s.end - s.start for s in spans]
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans[1:], start=1):
        children[span.parent].append(index)

    self_s = dict.fromkeys(LAYERS, 0.0)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    for index, span in enumerate(spans):
        own = duration[index] - sum(duration[c] for c in children[index])
        self_s[span.name.split(".", 1)[0]] += own
        total[span.name] = total.get(span.name, 0.0) + duration[index]
        calls[span.name] = calls.get(span.name, 0) + 1
    wall = duration[0]
    accounted = sum(self_s.values())
    if abs(accounted - wall) > 1e-6 * max(1.0, wall):
        raise ValueError(f"self times add up to {accounted}, traced wall is {wall}")

    def seconds(name: str) -> float:
        return total.get(name, 0.0)

    def info(name: str, key: str) -> list:
        return [s.info[key] for s in spans if s.name == name and key in s.info]

    def rate(count: float, secs: float) -> float:
        return count / secs if secs > 0 else 0.0

    def repeat_frac(keys: list) -> float:
        return (len(keys) - len(set(keys))) / len(keys) if keys else 0.0

    requests = [i for i, s in enumerate(spans) if s.name == "lattices.ensure_shell"]
    request_keys = info("lattices.ensure_shell", "shell")
    child_names = [{spans[c].name for c in children[i]} for i in requests]
    vectors = sum(info("lattices.enumerate_shell", "vectors"))
    rows = sum(info("lattices.load_shell", "rows"))
    dedup_keys = info("states.dedup", "shell")
    xi_states = sum(info("magic.xi_batch_gaussian", "states"))
    census_states = sum(info("entangle.entanglement_census", "states"))

    metrics = {
        "lattices.enumerate_s": seconds("lattices.enumerate_shell"),
        "lattices.vectors_enumerated": vectors,
        "lattices.enumerate_vectors_per_s": rate(vectors, seconds("lattices.enumerate_shell")),
        "lattices.save_s": seconds("lattices.save_shell"),
        "lattices.cache_bytes_written": sum(info("lattices.save_shell", "bytes")),
        "lattices.load_s": seconds("lattices.load_shell"),
        "lattices.load_rows_per_s": rate(rows, seconds("lattices.load_shell")),
        "lattices.cache_hits": sum("lattices.load_shell" in names for names in child_names),
        "lattices.cache_misses": sum("lattices.enumerate_shell" in names for names in child_names),
        "lattices.shell_requests": len(requests),
        "lattices.distinct_shells": len(set(request_keys)),
        "lattices.repeat_frac": repeat_frac(request_keys),
        "states.dedup_s": seconds("states.dedup"),
        "states.dedup_calls": calls.get("states.dedup", 0),
        "states.dedup_repeat_frac": repeat_frac(dedup_keys),
        "states.dedup_vectors_per_s": rate(sum(info("states.dedup", "vectors")), seconds("states.dedup")),
        "magic.sre_census_s": seconds("magic.sre_census"),
        "magic.xi_batch_s": seconds("magic.xi_batch_gaussian"),
        "magic.xi_states_per_s": rate(xi_states, seconds("magic.xi_batch_gaussian")),
        "entangle.census_s": seconds("entangle.entanglement_census"),
        "entangle.census_states_per_s": rate(census_states, seconds("entangle.entanglement_census")),
        "entangle.pair2q_s": seconds("entangle.pairwise_concurrence_2qubit"),
        "entangle.unclassified": sum(info("entangle.entanglement_census", "unclassified")),
        "clifford.generate_s": seconds("clifford.generate_clifford_qutrit"),
        "clifford.orbits_s": seconds("clifford.orbit_partition"),
        "clifford.correspondence_s": seconds("clifford.verify_e6_correspondence"),
        "trace.wall_s": wall,
    }
    metrics.update({f"{layer}.self_s": value for layer, value in self_s.items()})
    return metrics


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="JSON file for spans and metrics")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    tracer = Tracer(args.seed)
    tracer.install()
    code = tracer.run_cli(cli_args)
    checked, mismatches = tracer.check_oracle()
    metrics = layer_metrics(tracer.spans)
    metrics["magic.oracle_checked"] = checked
    metrics["magic.oracle_mismatches"] = mismatches
    metrics["trace.overhead_frac"] = tracer.bookkeeping_s / metrics["trace.wall_s"]
    with open(args.out, "w") as fh:
        json.dump({"metrics": metrics, "spans": [asdict(s) for s in tracer.spans]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
