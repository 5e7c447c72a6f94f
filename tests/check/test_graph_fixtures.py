"""RC7xx broken-fixture contract: each seeded DAG defect pins its code.

Same stability rules as ``test_fixtures.py``: these fixtures must keep
producing their exact diagnostic codes (and exit code 2) forever.
"""

import json
import math
from pathlib import Path

import pytest

from repro.check import check_graph_dict, check_graph_network
from repro.check.graph import check_graph_plan_dict
from repro.cli import main
from repro.graph import EltwiseSpec, GraphNetwork, compile_graph_plan, lower_graph
from repro.graph import executor as graph_executor
from repro.graph.executor import contract_bound, default_decisions
from repro.nn.layers import ConvSpec, ReLUSpec
from repro.nn.shapes import TensorShape

from ..graph.conftest import tiny_concat, tiny_residual

FIXTURES = Path(__file__).parent / "fixtures"


def run_check(capsys, *argv):
    """Run ``check`` expecting findings; returns (exit_code, codes)."""
    with pytest.raises(SystemExit) as info:
        main(["check", *argv, "--json"])
    data = json.loads(capsys.readouterr().out)
    return info.value.code, sorted({d["code"] for d in data["diagnostics"]})


class TestBrokenGraphFixtures:
    def test_dangling_edge_rc701(self, capsys):
        code, found = run_check(
            capsys, "--graph", str(FIXTURES / "dangling_graph.json"))
        assert code == 2
        assert found == ["RC701"]

    def test_cycle_rc702(self, capsys):
        code, found = run_check(
            capsys, "--graph", str(FIXTURES / "cyclic_graph.json"))
        assert code == 2
        assert found == ["RC702"]

    def test_mismatched_join_rc703(self, capsys):
        code, found = run_check(
            capsys, "--graph", str(FIXTURES / "mismatched_join_graph.json"))
        assert code == 2
        assert found == ["RC703"]

    def test_unknown_spec_rc705(self, capsys):
        code, found = run_check(
            capsys, "--graph", str(FIXTURES / "unknown_spec_graph.json"))
        assert code == 2
        assert found == ["RC705"]

    def test_tampered_graph_plan_rc706(self, capsys):
        code, found = run_check(
            capsys, "--plan", str(FIXTURES / "tampered_graph_plan.json"))
        assert code == 2
        assert found == ["RC706"]


class TestGraphCheckUnits:
    def test_clean_graphs_have_no_findings(self):
        for net in (tiny_residual(), tiny_concat()):
            assert check_graph_network(net) == []
            assert check_graph_dict(net.to_dict()) == []

    def test_foreign_program_breaks_coverage_rc704(self):
        """The segment-coverage identity: pairing a graph with another
        graph's lowered program is diagnosed, both directions."""
        findings = check_graph_network(tiny_residual(),
                                       program=lower_graph(tiny_concat()))
        codes = {d.code for d in findings}
        assert codes == {"RC704"}

    def test_structural_findings_are_exhaustive(self):
        """A file with several independent defects reports them all."""
        data = tiny_residual().to_dict()
        data["nodes"][1]["inputs"] = ["ghost"]
        data["nodes"][2]["name"] = "c1"  # duplicate
        data["nodes"].append({"type": "WarpSpec", "name": "w",
                              "inputs": ["c3"]})
        codes = {d.code for d in check_graph_dict(data)}
        assert {"RC701", "RC705"} <= codes

    def test_zoo_networks_check_clean(self):
        from repro.graph import GRAPH_ZOO

        for builder, size in GRAPH_ZOO.values():
            assert check_graph_network(builder(size)) == []

    def test_non_dict_payload_rc705(self):
        assert [d.code for d in check_graph_dict([1, 2])] == ["RC705"]


def residual_chain(blocks: int) -> GraphNetwork:
    """``blocks`` residual blocks of two 1x1 convolutions each: under the
    single-tap contract every block maps a bound ``m`` to ``2m + 4``."""
    net = GraphNetwork(f"chain{blocks}", TensorShape(4, 6, 6))
    prev = "input"
    for i in range(blocks):
        net.add(ConvSpec(f"b{i}_c1", kernel=1, stride=1, out_channels=4),
                inputs=(prev,))
        net.add(ReLUSpec(f"b{i}_r1"))
        body = net.add(ConvSpec(f"b{i}_c2", kernel=1, stride=1,
                                out_channels=4))
        net.add(EltwiseSpec(f"b{i}_add", op="add"), inputs=(body, prev))
        prev = net.add(ReLUSpec(f"b{i}_out"))
    return net


class TestExactnessBound:
    """RC707: integer-mode exactness that the bound cannot prove."""

    @pytest.mark.parametrize("blocks, log2_bound", [(20, 25.1), (30, 35.1),
                                                    (52, 57.1)])
    def test_chain_bound(self, blocks, log2_bound):
        bound, exact = contract_bound(residual_chain(blocks))
        assert exact and round(math.log2(bound), 1) == log2_bound

    def test_only_a_bound_past_2_53_warns(self):
        assert check_graph_network(residual_chain(30)) == []
        (finding,) = check_graph_network(residual_chain(52))
        assert finding.code == "RC707" and not finding.is_error

    def test_cli_exits_clean_unless_strict(self, capsys, tmp_path):
        path = tmp_path / "chain52.json"
        path.write_text(json.dumps(residual_chain(52).to_dict()))
        code, found = run_check(capsys, "--graph", str(path), "--strict")
        assert (code, found) == (2, ["RC707"])
        main(["check", "--graph", str(path)])  # a warning alone exits 0

    @pytest.mark.parametrize("precision", ["int", "float"])
    def test_plan_records_warn_in_integer_precision_only(self, precision):
        net = residual_chain(52)
        plan = compile_graph_plan(
            net, precision=precision,
            decisions=default_decisions(lower_graph(net)))
        codes = [d.code for d in check_graph_plan_dict(plan.to_dict())]
        assert codes == (["RC707"] if precision == "int" else [])

    def test_builds_no_weights(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the bound must not build weights")

        monkeypatch.setattr(graph_executor, "make_network_weights", forbidden)
        net = residual_chain(52)
        with pytest.raises(AssertionError, match="must not build weights"):
            graph_executor.GraphExecutor(net)  # the generator it calls
        compile_graph_plan(net, decisions=default_decisions(lower_graph(net)))
        assert [d.code for d in check_graph_network(net)] == ["RC707"]

    def test_zoo_networks_at_default_size_draw_nothing(self):
        from repro.graph import GRAPH_ZOO

        for builder, _ in GRAPH_ZOO.values():
            assert check_graph_network(builder()) == []
