"""Tests for the CDFG IR (repro.hls.ir)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hls import CDFG, OpKind, PortTypeError, ValueType


def small_graph():
    g = CDFG()
    a = g.add_input("a")
    b = g.add_input("b")
    c = g.add_input("c")
    m = g.add_op(OpKind.MUL, a, b)
    s = g.add_op(OpKind.ADD, m, c)
    g.add_output(s, "y")
    return g, (a, b, c, m, s)


class TestConstruction:
    def test_basic_graph(self):
        g, (a, b, c, m, s) = small_graph()
        assert len(g) == 6
        assert g.nodes[m].kind is OpKind.MUL
        assert g.predecessors(s) == [m, c]
        assert g.successors(m) == [s]

    def test_operand_must_exist(self):
        g = CDFG()
        with pytest.raises(KeyError):
            g.add_op(OpKind.NEG, 42)

    def test_arity_checked(self):
        g = CDFG()
        a = g.add_input("a")
        with pytest.raises(ValueError):
            g.add_op(OpKind.ADD, a)

    def test_const(self):
        g = CDFG()
        c = g.add_const(2.5)
        assert g.nodes[c].value == 2.5
        assert g.nodes[c].result_type is ValueType.IEEE


class TestTypeChecking:
    def test_fma_ports(self):
        g = CDFG()
        a = g.add_input("a")
        b = g.add_input("b")
        c = g.add_input("c")
        a_cs = g.add_op(OpKind.I2C, a)
        c_cs = g.add_op(OpKind.I2C, c)
        fma = g.add_op(OpKind.FMA, a_cs, b, c_cs)
        assert g.nodes[fma].result_type is ValueType.CS

    def test_fma_rejects_ieee_on_cs_port(self):
        g = CDFG()
        a = g.add_input("a")
        b = g.add_input("b")
        c = g.add_input("c")
        with pytest.raises(TypeError):
            g.add_op(OpKind.FMA, a, b, c)

    def test_add_rejects_cs_operand(self):
        g = CDFG()
        a = g.add_input("a")
        cs = g.add_op(OpKind.I2C, a)
        with pytest.raises(TypeError):
            g.add_op(OpKind.ADD, cs, a)

    def test_c2i_roundtrip_types(self):
        g = CDFG()
        a = g.add_input("a")
        cs = g.add_op(OpKind.I2C, a)
        back = g.add_op(OpKind.C2I, cs)
        assert g.nodes[back].result_type is ValueType.IEEE

    def test_port_mismatch_raises_typed_error(self):
        # the typed error is a TypeError subclass, so old handlers
        # keep working while new code can catch it precisely
        g = CDFG()
        a = g.add_input("a")
        with pytest.raises(PortTypeError):
            g.add_op(OpKind.C2I, a)
        assert issubclass(PortTypeError, TypeError)

    def test_construction_choke_point_validates(self):
        # even bypassing add_op, _new itself rejects ill-typed ports
        g = CDFG()
        a = g.add_input("a")
        cs = g.add_op(OpKind.I2C, a)
        with pytest.raises(PortTypeError):
            g._new(OpKind.OUTPUT, [cs], "y")
        with pytest.raises(ValueError):
            g._new(OpKind.FMA, [cs])        # arity checked too
        with pytest.raises(KeyError):
            g._new(OpKind.NEG, [12345])


class TestStructure:
    def test_topological_order(self):
        g, nodes = small_graph()
        order = g.topological_order()
        pos = {nid: i for i, nid in enumerate(order)}
        for n in g.nodes.values():
            for op in n.operands:
                assert pos[op] < pos[n.id]

    def test_cycle_detection(self):
        g, (a, b, c, m, s) = small_graph()
        # manually create a cycle
        g.set_operands(m, [s, b])
        with pytest.raises(ValueError):
            g.topological_order()

    def test_consumers_with_ports(self):
        g, (a, b, c, m, s) = small_graph()
        assert g.consumers(m) == [(s, 0)]
        assert g.consumers(c) == [(s, 1)]

    def test_rewire(self):
        g, (a, b, c, m, s) = small_graph()
        d = g.add_input("d")
        g.rewire(c, d)
        assert g.predecessors(s) == [m, d]

    def test_remove_requires_no_consumers(self):
        g, (a, b, c, m, s) = small_graph()
        with pytest.raises(ValueError):
            g.remove(m)

    def test_prune_dead(self):
        g, (a, b, c, m, s) = small_graph()
        dead = g.add_op(OpKind.MUL, a, b)  # never consumed
        dead2 = g.add_op(OpKind.NEG, dead)
        n_before = len(g)
        removed = g.prune_dead()
        assert removed == 2
        assert len(g) == n_before - 2
        assert dead not in g.nodes and dead2 not in g.nodes

    def test_op_count(self):
        g, _ = small_graph()
        assert g.op_count(OpKind.MUL) == 1
        assert g.op_count(OpKind.FMA) == 0

    def test_dot_export(self):
        g, _ = small_graph()
        dot = g.to_dot()
        assert dot.startswith("digraph")
        assert "mul" in dot and "ieee" in dot


def _brute_consumers(g, nid):
    return [(n.id, port) for n in g.nodes.values()
            for port, op in enumerate(n.operands) if op == nid]


def _brute_successors(g, nid):
    return [n.id for n in g.nodes.values() if nid in n.operands]


def _model_live(model, kinds):
    """Ids reachable backwards from the OUTPUT nodes of ``model``."""
    live: set[int] = set()
    work = [nid for nid in model if kinds[nid] is OpKind.OUTPUT]
    while work:
        nid = work.pop()
        if nid not in live:
            live.add(nid)
            work.extend(model[nid])     # KeyError on a dangling id
    return live


#: IEEE-in/IEEE-out kinds, so any existing node is a well-typed operand
_KINDS = [(OpKind.ADD, 2), (OpKind.MUL, 2), (OpKind.NEG, 1),
          (OpKind.OUTPUT, 1)]


class TestUseListIndex:
    """Random edit sequences against a plain ``{id: operands}`` model:
    the edits do what the model does, and the use lists behind
    consumers()/successors() always answer what a scan of every node's
    operands would (unchecked edits included: cycles, dangling ids)."""

    @settings(max_examples=200)
    @given(st.data())
    def test_index_matches_brute_force_scan(self, data):
        g = CDFG()
        model: dict[int, list[int]] = {}
        kinds: dict[int, OpKind] = {}
        removed: list[int] = []
        ids = st.sampled_from
        for _ in range(data.draw(st.integers(1, 30), label="steps")):
            live = sorted(model)
            step = data.draw(ids(["add", "rewire", "rewire_only", "set",
                                  "remove", "prune"]))
            if not live:
                nid = g.add_input("x")
                model[nid], kinds[nid] = [], OpKind.INPUT
            elif step == "add":
                kind, arity = data.draw(ids(_KINDS))
                ops = data.draw(st.lists(ids(live), min_size=arity,
                                         max_size=arity))
                nid = g.add_op(kind, *ops)
                model[nid], kinds[nid] = ops, kind
            elif step in ("rewire", "rewire_only"):
                old = data.draw(ids(live + removed))
                new = data.draw(ids(live))
                only = None
                if step == "rewire_only":
                    only = set(data.draw(st.lists(ids(live))))
                g.rewire(old, new, only=only)
                for nid, ops in model.items():
                    if only is None or nid in only:
                        model[nid] = [new if op == old else op
                                      for op in ops]
            elif step == "set":
                nid = data.draw(ids(live))
                pool = ids(live) | st.integers(10_000, 10_002)
                model[nid] = data.draw(st.lists(pool, max_size=3))
                g.set_operands(nid, model[nid])
            elif step == "remove":
                nid = data.draw(ids(live))
                if any(nid in ops for ops in model.values()):
                    with pytest.raises(ValueError):
                        g.remove(nid)
                else:
                    g.remove(nid)
                    del model[nid]
                    removed.append(nid)
            else:
                try:
                    keep = _model_live(model, kinds)
                except KeyError:    # a live node reads a dangling id
                    with pytest.raises(KeyError):
                        g.prune_dead()
                else:
                    assert g.prune_dead() == len(model) - len(keep)
                    removed.extend(set(model) - keep)
                    model = {n: ops for n, ops in model.items()
                             if n in keep}
            assert {n: node.operands for n, node in g.nodes.items()} == \
                {n: tuple(ops) for n, ops in model.items()}
            probe = set(model) | set(removed) | {10_000, 10_001, 10_002}
            for ops in model.values():
                probe.update(ops)
            for nid in probe:
                assert g.consumers(nid) == _brute_consumers(g, nid)
                assert g.successors(nid) == _brute_successors(g, nid)
