"""CDFG intermediate representation of the Nymble-like HLS core.

The paper's compiler pass operates on a scheduled control-data-flow
graph (CDFG, Fig. 1): operation nodes connected by data edges.  We model
the datapath part (the solver kernels are straight-line code after
CVXGEN's unrolling, so control constructs are not needed -- exactly the
situation of the paper's `ldlsolve()` kernels).

Two value types flow along edges: ``ieee`` (binary64 words) and ``cs``
(the P/FCS operand format).  Ordinary operators produce/consume ``ieee``;
the FMA nodes introduced by the Fig. 12 pass consume ``cs`` on their
``A``/``C`` ports and ``ieee`` on ``B``, which is why the pass must
insert :data:`OpKind.I2C` / :data:`OpKind.C2I` converters and why
removing redundant converter pairs matters.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass

__all__ = ["OpKind", "ValueType", "Node", "CDFG", "PortTypeError"]


class PortTypeError(TypeError):
    """An operand edge carries the wrong value format.

    Raised at node-construction time: wiring an IEEE value into a
    carry-save port (or vice versa) is the exact malformation the
    Fig. 12 invariant forbids, so it fails fast instead of producing a
    graph that silently computes garbage.
    """


class ValueType(enum.Enum):
    IEEE = "ieee"
    CS = "cs"


class OpKind(enum.Enum):
    """Operation kinds of the datapath IR."""

    INPUT = "input"
    CONST = "const"
    OUTPUT = "output"
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    NEG = "neg"
    FMA = "fma"     # a + b*c  (a, c in CS format; b in IEEE)
    I2C = "i2c"     # IEEE -> CS converter
    C2I = "c2i"     # CS -> IEEE converter


#: operand-port value types per kind (None = same as the node's output)
_PORT_TYPES: dict[OpKind, tuple[ValueType, ...]] = {
    OpKind.ADD: (ValueType.IEEE, ValueType.IEEE),
    OpKind.SUB: (ValueType.IEEE, ValueType.IEEE),
    OpKind.MUL: (ValueType.IEEE, ValueType.IEEE),
    OpKind.DIV: (ValueType.IEEE, ValueType.IEEE),
    OpKind.NEG: (ValueType.IEEE,),
    OpKind.FMA: (ValueType.CS, ValueType.IEEE, ValueType.CS),
    OpKind.I2C: (ValueType.IEEE,),
    OpKind.C2I: (ValueType.CS,),
    OpKind.OUTPUT: (ValueType.IEEE,),
}

_RESULT_TYPES: dict[OpKind, ValueType] = {
    OpKind.INPUT: ValueType.IEEE,
    OpKind.CONST: ValueType.IEEE,
    OpKind.OUTPUT: ValueType.IEEE,
    OpKind.ADD: ValueType.IEEE,
    OpKind.SUB: ValueType.IEEE,
    OpKind.MUL: ValueType.IEEE,
    OpKind.DIV: ValueType.IEEE,
    OpKind.NEG: ValueType.IEEE,
    OpKind.FMA: ValueType.CS,
    OpKind.I2C: ValueType.CS,
    OpKind.C2I: ValueType.IEEE,
}


@dataclass(slots=True)
class Node:
    """One CDFG operation.

    ``operands`` are node ids in port order, as a tuple: edges change
    only through :class:`CDFG` (``set_operands``, ``rewire``), which
    keeps the graph's use lists in step.  ``negate_b`` on FMA nodes
    flips the sign of the ``B`` port (how the pass absorbs a ``SUB``:
    ``a - b*c == a + (-b)*c``; the sign flip is free in IEEE format).
    """

    id: int
    kind: OpKind
    operands: tuple[int, ...] = ()
    name: str = ""
    value: float | None = None      # for CONST nodes
    negate_b: bool = False          # for FMA nodes

    @property
    def result_type(self) -> ValueType:
        return _RESULT_TYPES[self.kind]


class CDFG:
    """A datapath graph: nodes, data edges, and structural queries.

    Besides the nodes the graph keeps a use list per value: ``_users``
    maps a node id to the ids of the nodes reading it, one entry per
    reading port, in ascending order.  It makes the consumer queries
    O(degree) instead of a scan over every node.  Ids read by some
    node but absent from ``nodes`` (dangling operands, which only the
    unchecked mutators can create) keep an entry too, so every query
    answers exactly what a scan of ``operands`` would.
    """

    def __init__(self) -> None:
        self.nodes: dict[int, Node] = {}
        self._users: dict[int, list[int]] = {}
        self._next_id = 0

    # -- construction ----------------------------------------------------

    def _new(self, kind: OpKind, operands: list[int], name: str = "",
             value: float | None = None, negate_b: bool = False) -> int:
        """Create a node, validating operands against ``_PORT_TYPES``.

        Construction is the single choke point for well-typed graphs:
        even callers that bypass :meth:`add_op` cannot create a node
        whose ports read the wrong value format.  (Post-construction
        mutation -- ``set_operands``, ``rewire`` -- is deliberately
        unchecked; the static verifier in :mod:`repro.analysis` covers
        that.)
        """
        for op in operands:
            if op not in self.nodes:
                raise KeyError(f"operand {op} not in graph")
        ports = _PORT_TYPES.get(kind, ())
        if kind not in (OpKind.INPUT, OpKind.CONST) and \
                len(operands) != len(ports):
            raise ValueError(
                f"{kind.value} takes {len(ports)} operands, "
                f"got {len(operands)}")
        for op, want in zip(operands, ports):
            got = self.nodes[op].result_type
            if got is not want:
                raise PortTypeError(
                    f"{kind.value} port expects {want.value}, operand "
                    f"{op} ({self.nodes[op].kind.value}) produces "
                    f"{got.value}")
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = Node(nid, kind, (), name, value, negate_b)
        self._users.setdefault(nid, [])
        self.set_operands(nid, operands)
        return nid

    def add_input(self, name: str) -> int:
        return self._new(OpKind.INPUT, [], name)

    def add_const(self, value: float, name: str = "") -> int:
        return self._new(OpKind.CONST, [], name or repr(value), value)

    def add_op(self, kind: OpKind, *operands: int, name: str = "",
               negate_b: bool = False) -> int:
        if kind in (OpKind.INPUT, OpKind.CONST):
            raise ValueError("use add_input/add_const")
        return self._new(kind, list(operands), name, negate_b=negate_b)

    def add_output(self, operand: int, name: str) -> int:
        return self.add_op(OpKind.OUTPUT, operand, name=name)

    # -- structure ---------------------------------------------------------

    def predecessors(self, nid: int) -> list[int]:
        return list(self.nodes[nid].operands)

    def successors(self, nid: int) -> list[int]:
        """Distinct ids of the nodes reading ``nid``, ascending."""
        return list(dict.fromkeys(self._users.get(nid, ())))

    def consumers(self, nid: int) -> list[tuple[int, int]]:
        """(consumer id, port index) pairs reading ``nid``, ordered by
        consumer id, then port."""
        return [(u, port) for u in self.successors(nid)
                for port, op in enumerate(self.nodes[u].operands)
                if op == nid]

    def inputs(self) -> list[int]:
        return [n.id for n in self.nodes.values()
                if n.kind is OpKind.INPUT]

    def outputs(self) -> list[int]:
        return [n.id for n in self.nodes.values()
                if n.kind is OpKind.OUTPUT]

    def topological_order(self) -> list[int]:
        """Topologically sorted node ids; raises on cycles.

        Built from ``operands`` rather than the use lists, so a
        dangling operand still raises ``KeyError`` here."""
        indeg = {nid: 0 for nid in self.nodes}
        succs: dict[int, list[int]] = {nid: [] for nid in self.nodes}
        for n in self.nodes.values():
            for op in n.operands:
                succs[op].append(n.id)
                indeg[n.id] += 1
        order = sorted(nid for nid, d in indeg.items() if d == 0)
        for nid in order:       # FIFO: ``order`` doubles as the queue
            for s in succs[nid]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    order.append(s)
        if len(order) != len(self.nodes):
            raise ValueError("CDFG contains a cycle")
        return order

    def validate(self) -> None:
        """Check structural invariants: acyclicity and port types."""
        self.topological_order()
        for n in self.nodes.values():
            ports = _PORT_TYPES.get(n.kind, ())
            for op, want in zip(n.operands, ports):
                got = self.nodes[op].result_type
                if got is not want:
                    raise PortTypeError(
                        f"node {n.id} ({n.kind.value}): port type "
                        f"mismatch ({got.value} into {want.value})")

    def op_count(self, kind: OpKind) -> int:
        return sum(1 for n in self.nodes.values() if n.kind is kind)

    # -- mutation ----------------------------------------------------------

    def set_operands(self, nid: int, operands) -> None:
        """Replace the operand list of ``nid`` (unchecked, like
        :meth:`rewire`: ids need not exist, ports are not typed)."""
        node = self.nodes[nid]
        for op in node.operands:
            self._users[op].remove(nid)
        node.operands = tuple(operands)
        for op in node.operands:
            bisect.insort(self._users.setdefault(op, []), nid)

    def rewire(self, old: int, new: int,
               only: set[int] | None = None) -> None:
        """Redirect consumers of ``old`` to read ``new`` instead."""
        for u in self.successors(old):
            if only is None or u in only:
                self.set_operands(u, [new if op == old else op
                                      for op in self.nodes[u].operands])

    def remove(self, nid: int) -> None:
        """Remove a node (must have no consumers)."""
        if self._users.get(nid):
            raise ValueError(f"node {nid} still has consumers")
        self.set_operands(nid, ())
        del self.nodes[nid]
        self._users.pop(nid, None)

    def prune_dead(self) -> int:
        """Remove nodes with no path to an output; returns count."""
        live: set[int] = set()
        work = list(self.outputs())
        while work:
            nid = work.pop()
            if nid in live:
                continue
            live.add(nid)
            work.extend(self.nodes[nid].operands)
        dead = [nid for nid in self.nodes if nid not in live]
        # every reader of a dead node is dead too: drop their edges
        # first, then the nodes and their (now empty) use lists
        for nid in dead:
            self.set_operands(nid, ())
        for nid in dead:
            del self.nodes[nid]
            self._users.pop(nid, None)
        return len(dead)

    # -- debugging ---------------------------------------------------------

    def to_dot(self) -> str:
        """GraphViz dot rendering (operation kinds + value types)."""
        lines = ["digraph cdfg {", "  rankdir=TB;"]
        for n in self.nodes.values():
            label = n.name or n.kind.value
            shape = {"input": "ellipse", "output": "ellipse",
                     "const": "plaintext"}.get(n.kind.value, "box")
            style = ', style=filled, fillcolor="#cde"' \
                if n.kind is OpKind.FMA else ""
            lines.append(
                f'  n{n.id} [label="{label}\\n{n.kind.value}", '
                f'shape={shape}{style}];')
        for n in self.nodes.values():
            for op in n.operands:
                t = self.nodes[op].result_type.value
                lines.append(f'  n{op} -> n{n.id} [label="{t}"];')
        lines.append("}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.nodes)
