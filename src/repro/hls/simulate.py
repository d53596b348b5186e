"""CDFG functional simulation.

Evaluates a datapath graph on concrete inputs, with two uses:

* **Pass verification** -- the Fig. 12 rewrite must preserve semantics;
  tests simulate a kernel before and after the pass and compare.
* **Hardware-numerics execution** -- FMA nodes can be evaluated through
  the *bit-accurate* PCS/FCS models (via a chain engine), so a whole
  compiled solver kernel runs with exactly the arithmetic the FPGA
  datapath would produce.

:mod:`repro.hls.execute` builds on the same node evaluator to run a
*scheduled* datapath cycle by cycle.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..fma.chain import FmaEngine
from ..fp.ops import fp_add, fp_div, fp_mul, fp_neg, fp_sub
from ..fp.value import FPValue
from .ir import CDFG, Node, OpKind

__all__ = ["simulate", "eval_node"]


def eval_node(graph: CDFG, node: Node, values: dict[int, Any],
              inputs: Mapping[str, float],
              engine: FmaEngine | None) -> Any:
    """Evaluate a single node given its operands\' values."""
    k = node.kind
    if k is OpKind.INPUT:
        if node.name not in inputs:
            raise KeyError(f"missing input {node.name!r}")
        return FPValue.from_float(float(inputs[node.name]))
    if k is OpKind.CONST:
        return FPValue.from_float(float(node.value or 0.0))
    if k is OpKind.ADD:
        return fp_add(values[node.operands[0]], values[node.operands[1]])
    if k is OpKind.SUB:
        return fp_sub(values[node.operands[0]], values[node.operands[1]])
    if k is OpKind.MUL:
        return fp_mul(values[node.operands[0]], values[node.operands[1]])
    if k is OpKind.DIV:
        return fp_div(values[node.operands[0]], values[node.operands[1]])
    if k is OpKind.NEG:
        return fp_neg(values[node.operands[0]])
    if k is OpKind.I2C:
        return _require(engine).lift(values[node.operands[0]])
    if k is OpKind.C2I:
        return _require(engine).lower(values[node.operands[0]])
    if k is OpKind.FMA:
        a = values[node.operands[0]]
        b = values[node.operands[1]]
        c = values[node.operands[2]]
        if node.negate_b:
            b = fp_neg(b)
        return _require(engine).fma(a, b, c)
    if k is OpKind.OUTPUT:
        return values[node.operands[0]]
    raise NotImplementedError(k)  # pragma: no cover


def simulate(graph: CDFG, inputs: Mapping[str, float],
             engine: FmaEngine | None = None) -> dict[str, float]:
    """Evaluate the graph; returns output name -> value.

    IEEE nodes use the bit-accurate binary64 operators; FMA/I2C/C2I
    nodes require ``engine`` (a :class:`~repro.fma.chain.FmaEngine`
    matching the FMA flavor the pass inserted).

    Recognized engines run as their bit-identical fast twins from
    :mod:`repro.batch` (:func:`~repro.batch.accelerate_engine`);
    ``REPRO_BATCH_BACKEND=faithful`` keeps the digit-level reference
    models.
    """
    from ..batch import accelerate_engine
    engine = accelerate_engine(engine)
    values: dict[int, Any] = {}
    for nid in graph.topological_order():
        values[nid] = eval_node(graph, graph.nodes[nid], values, inputs,
                                engine)
    return {graph.nodes[nid].name: values[nid].to_float()
            for nid in graph.outputs()}


def _require(engine: FmaEngine | None) -> FmaEngine:
    if engine is None:
        raise ValueError(
            "this graph contains carry-save nodes; pass an FmaEngine "
            "matching the inserted FMA flavor")
    return engine
