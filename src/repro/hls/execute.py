"""Cycle-accurate execution of a scheduled datapath.

A :class:`~repro.hls.schedule.Schedule` claims that the datapath
finishes in ``length`` cycles under the operator latencies and resource
limits; this module *runs* it, cycle by cycle, verifying the claim:

* every operation issues exactly at its scheduled start cycle,
* its operands' producing operations have finished by then
  (dependence legality),
* no cycle issues more operations of a class than the unit pool allows
  (resource legality -- the "up to 39 time-multiplexed FMA units" of
  Sec. IV-D),

while computing real values through the same bit-accurate evaluators as
:func:`repro.hls.simulate.simulate`.  The result carries the outputs,
the cycle count, and a per-cycle issue trace (useful for visualizing
the Fig. 15 schedules).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from ..fma.chain import FmaEngine
from .ir import CDFG, OpKind
from .operators import OperatorLibrary
from .schedule import Schedule
from .simulate import eval_node

__all__ = ["ExecutionResult", "ScheduleViolation", "execute_schedule"]


class ScheduleViolation(RuntimeError):
    """A schedule broke a dependence or resource constraint."""


@dataclass
class ExecutionResult:
    """Outcome of executing a schedule."""

    outputs: dict[str, float]
    cycles: int
    issues_per_cycle: dict[int, list[int]] = field(default_factory=dict)
    peak_usage: dict[str, int] = field(default_factory=dict)

    def busiest_cycle(self) -> int:
        if not self.issues_per_cycle:
            return 0
        return max(self.issues_per_cycle,
                   key=lambda t: len(self.issues_per_cycle[t]))


def execute_schedule(graph: CDFG, schedule: Schedule,
                     library: OperatorLibrary,
                     inputs: Mapping[str, float],
                     engine: FmaEngine | None = None) -> ExecutionResult:
    """Run a scheduled datapath cycle by cycle.

    Raises :class:`ScheduleViolation` if an operation issues before its
    operands are ready or a resource pool is oversubscribed in a cycle.

    Recognized engines run as their bit-identical fast twins, as in
    :func:`repro.hls.simulate`.
    """
    from ..batch import accelerate_engine
    engine = accelerate_engine(engine)
    if schedule.graph is not graph:
        raise ValueError("schedule does not belong to this graph")
    missing = set(graph.nodes) - set(schedule.start)
    if missing:
        raise ScheduleViolation(f"unscheduled nodes: {sorted(missing)}")

    by_cycle: dict[int, list[int]] = {}
    for nid, t in schedule.start.items():
        by_cycle.setdefault(t, []).append(nid)

    finish: dict[int, int] = {
        nid: schedule.start[nid] + library.latency(graph.nodes[nid])
        for nid in graph.nodes}

    values: dict[int, Any] = {}
    peak: dict[str, int] = {}
    total_cycles = max(finish.values(), default=0)
    for cycle in sorted(by_cycle):
        usage: dict[str, int] = {}
        for nid in sorted(by_cycle[cycle]):
            node = graph.nodes[nid]
            # dependence legality
            for op in node.operands:
                if finish[op] > cycle:
                    raise ScheduleViolation(
                        f"node {nid} ({node.kind.value}) issues at cycle "
                        f"{cycle} but operand {op} finishes at "
                        f"{finish[op]}")
            # resource legality (one issue per unit per cycle:
            # the operators are pipelined)
            res = library.resource_class(node)
            if res is not None:
                usage[res] = usage.get(res, 0) + 1
                limit = library.limit_for(res)
                if limit is not None and usage[res] > limit:
                    raise ScheduleViolation(
                        f"cycle {cycle}: {usage[res]} issues on "
                        f"{res!r} exceed the {limit}-unit pool")
            values[nid] = eval_node(graph, node, values, inputs, engine)
        for res, n in usage.items():
            peak[res] = max(peak.get(res, 0), n)

    outputs = {graph.nodes[nid].name: values[nid].to_float()
               for nid in graph.outputs()}
    return ExecutionResult(outputs, total_cycles, by_cycle, peak)


def format_issue_trace(result: ExecutionResult, graph: CDFG,
                       max_cycles: int = 40) -> str:
    """Human-readable per-cycle issue listing (for examples/debugging)."""
    lines = [f"{result.cycles} cycles, peak usage {result.peak_usage}"]
    for t in sorted(result.issues_per_cycle)[:max_cycles]:
        ops = [graph.nodes[nid].kind.value
               for nid in result.issues_per_cycle[t]
               if graph.nodes[nid].kind not in (OpKind.INPUT,
                                                OpKind.CONST,
                                                OpKind.OUTPUT)]
        if ops:
            lines.append(f"  cycle {t:4d}: " + " ".join(ops))
    return "\n".join(lines)


__all__.append("format_issue_trace")
