"""Static verification of DAG networks and graph plans (RC7xx).

:class:`~repro.graph.ir.GraphNetwork` is acyclic by construction, but
the artifacts that cross process boundaries — raw graph dictionaries
(``GraphNetwork.to_dict`` JSON, hand edits) and serialized graph plans
(``CompiledGraphPlan.to_dict``) — carry no such guarantee. The checks
here work on raw dictionaries where possible, so a broken file yields
the *full* list of defects instead of the first construction error:

* **RC701** — a node input names a tensor no node (and not the graph
  input) produces;
* **RC702** — the edge relation contains a cycle (Kahn's algorithm on
  the raw dictionaries, which never assumes declaration order);
* **RC703** — join operands disagree (shape for elementwise joins,
  spatial extent for concatenation), or a stored shape contradicts
  re-inference;
* **RC704** — the lowering does not cover the graph: some node is
  claimed by no step of the lowered program, or a step claims a node
  the graph does not have (the segment-coverage identity);
* **RC705** — a node is malformed (unknown spec type, missing name,
  duplicate, reserved name, no inputs) or the graph has no single sink;
* **RC706** — a serialized graph plan record is invalid (wrong family,
  missing fields, decisions that do not cover the lowered segments);
* **RC707** (warning) — integer-mode exactness cannot be proven: under
  the weight and input generators' contract
  (:func:`~repro.graph.executor.contract_bound`), some activation or
  partial sum may reach 2^53, where float64 stops holding every integer
  and bit-identity between execution paths is luck, not a guarantee.
  Computed from shapes alone; float-precision plans do not draw it.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

from ..errors import ConfigError
from ..nn.shapes import ShapeError
from .diagnostics import Diagnostic, diag

_PLAN_FIELDS = ("key", "graph", "decisions", "seed", "degraded")


def _structural(data: Any, site: str) -> List[Diagnostic]:
    """Name/edge/cycle checks on the raw dictionary form."""
    from ..graph.ir import GRAPH_SPEC_TYPES, INPUT

    out: List[Diagnostic] = []
    if not isinstance(data, dict):
        return [diag("RC705", f"graph description is "
                     f"{type(data).__name__}, not an object", site=site)]
    shape = data.get("input_shape")
    if (not isinstance(shape, (list, tuple)) or len(shape) != 3
            or not all(isinstance(v, int) and v > 0 for v in shape)):
        out.append(diag("RC705", f"input_shape must be [C, H, W] of "
                        f"positive ints, got {shape!r}", site=site))
    nodes = data.get("nodes")
    if not isinstance(nodes, list) or not nodes:
        out.append(diag("RC705", "graph has no 'nodes' list", site=site))
        return out

    names: Dict[str, int] = {}
    for i, entry in enumerate(nodes):
        where = f"{site}nodes[{i}]" if site else f"nodes[{i}]"
        if not isinstance(entry, dict):
            out.append(diag("RC705", "node is not an object", site=where))
            continue
        kind = entry.get("type")
        if kind not in GRAPH_SPEC_TYPES:
            out.append(diag("RC705", f"unknown node spec type {kind!r}",
                            site=where, known=sorted(GRAPH_SPEC_TYPES)))
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            out.append(diag("RC705", "node has no name", site=where))
            continue
        if name == INPUT:
            out.append(diag("RC705", f"node name {INPUT!r} is reserved "
                            "for the graph input", site=where))
            continue
        if name in names:
            out.append(diag("RC705", f"duplicate node name {name!r} "
                            f"(first at nodes[{names[name]}])", site=where,
                            name=name))
            continue
        names[name] = i
        inputs = entry.get("inputs")
        if (not isinstance(inputs, (list, tuple)) or not inputs
                or not all(isinstance(s, str) for s in inputs)):
            out.append(diag("RC705", f"node {name!r} needs a non-empty "
                            "list of input names", site=where))

    # Dangling edges against the *full* name set — declaration order is
    # deliberately not assumed here.
    edges: Dict[str, List[str]] = {}
    for i, entry in enumerate(nodes):
        if not isinstance(entry, dict):
            continue
        name = entry.get("name")
        if not isinstance(name, str) or names.get(name) != i:
            continue
        deps: List[str] = []
        for src in entry.get("inputs") or ():
            if not isinstance(src, str):
                continue
            if src == INPUT:
                continue
            if src not in names:
                out.append(diag(
                    "RC701", f"node {name!r} reads tensor {src!r}, which "
                    "no node produces", site=f"nodes[{i}]", node=name,
                    missing=src))
            else:
                deps.append(src)
        edges[name] = deps

    # Kahn's algorithm over the known-node edge relation.
    indegree = {name: 0 for name in edges}
    consumers: Dict[str, List[str]] = {name: [] for name in edges}
    for name, deps in edges.items():
        for src in deps:
            consumers[src].append(name)
            indegree[name] += 1
    ready = [name for name, deg in indegree.items() if deg == 0]
    seen = 0
    while ready:
        name = ready.pop()
        seen += 1
        for nxt in consumers[name]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    if seen != len(edges):
        cyclic = sorted(name for name, deg in indegree.items() if deg > 0)
        out.append(diag("RC702", f"graph contains a cycle through "
                        f"{cyclic}", site=site, nodes=cyclic))
    return out


def check_graph_dict(data: Any, site: str = "") -> List[Diagnostic]:
    """Validate a raw graph description (the ``GraphNetwork.to_dict``
    form). Structural defects are reported exhaustively; if the
    structure is sound the graph is rebuilt to verify shape inference
    (join operand agreement surfaces as RC703)."""
    from ..graph.ir import GraphError, GraphNetwork

    out = _structural(data, site)
    if out:
        return out
    try:
        network = GraphNetwork.from_dict(data)
    except ShapeError as err:
        return [diag("RC703", f"shape inference fails: {err}", site=site)]
    except (GraphError, TypeError, ValueError) as err:
        return [diag("RC705", f"graph does not rebuild: {err}", site=site)]
    return check_graph_network(network, site=site)


def check_graph_network(network: Any, program: Any = None,
                        site: str = "") -> List[Diagnostic]:
    """Validate a constructed :class:`~repro.graph.ir.GraphNetwork` plus
    its lowering (defense in depth behind the IR's own construction
    checks — `compile_graph_plan` runs this on every plan)."""
    from ..graph.executor import contract_bound
    from ..graph.ir import INPUT, GraphError, JOIN_SPECS
    from ..graph.lower import lower_graph
    from ..sim.weights import INPUT_PEAK

    out: List[Diagnostic] = []
    site = site or network.name
    index = {node.name: node.index for node in network}
    for node in network:
        for src in node.inputs:
            if src == INPUT:
                continue
            if src not in index:
                out.append(diag("RC701", f"node {node.name!r} reads "
                                f"{src!r}, which no node produces",
                                site=site, node=node.name, missing=src))
            elif index[src] >= node.index:
                out.append(diag("RC702", f"node {node.name!r} reads "
                                f"{src!r}, which is declared after it",
                                site=site, node=node.name, source=src))
        if isinstance(node.spec, JOIN_SPECS):
            try:
                inferred = node.spec.join_output_shape(node.input_shapes)
            except ShapeError as err:
                out.append(diag("RC703", str(err), site=site,
                                node=node.name))
                continue
            if inferred != node.output_shape:
                out.append(diag("RC703", f"join {node.name!r} stores shape "
                                f"{node.output_shape} but operands infer "
                                f"{inferred}", site=site, node=node.name))
    if out:
        return out

    sinks = [node.name for node in network.sinks()]
    if len(sinks) != 1:
        out.append(diag("RC705", f"graph must have exactly one sink, "
                        f"found {sinks}", site=site, sinks=sinks))
        return out

    if program is None:
        try:
            program = lower_graph(network)
        except (GraphError, ConfigError, ShapeError) as err:
            out.append(diag("RC704", f"graph does not lower: {err}",
                            site=site))
            return out

    # The segment-coverage identity: lowering claims every node exactly
    # once, and claims nothing the graph does not have.
    claimed = set(program.node_step)
    have = set(index)
    for name in sorted(have - claimed):
        out.append(diag("RC704", f"node {name!r} is claimed by no step of "
                        "the lowered program", site=site, node=name))
    for name in sorted(claimed - have):
        out.append(diag("RC704", f"lowered program claims node {name!r}, "
                        "which the graph does not have", site=site,
                        node=name))

    bound, _ = contract_bound(network)
    if bound >= 2.0 ** 53:
        out.append(diag(
            "RC707", f"integer-mode values may reach 2^{math.log2(bound):.1f}"
            f" >= 2^53 (single-tap weights, |bias| <= 2, |input| <= "
            f"{INPUT_PEAK}): "
            "float64 cannot carry them exactly, so fused-vs-reference "
            "bit-identity is not guaranteed", site=site,
            log2_bound=round(math.log2(bound), 1)))
    return out


def check_graph_plan_dict(data: Any, network: Optional[Any] = None,
                          site: str = "") -> List[Diagnostic]:
    """Validate one serialized graph plan (the
    ``CompiledGraphPlan.to_dict`` form)."""
    from ..graph.ir import GraphError, GraphNetwork
    from ..graph.lower import lower_graph
    from ..serve.plan import PRECISIONS, PlanKey

    if not isinstance(data, dict):
        return [diag("RC706", f"graph plan record is "
                     f"{type(data).__name__}, not an object", site=site)]
    missing = [f for f in _PLAN_FIELDS if f not in data]
    if missing:
        return [diag("RC706", f"graph plan record is missing {missing}",
                     site=site, missing=missing)]
    try:
        key = PlanKey.from_dict(data["key"])
    except (KeyError, TypeError, ValueError) as err:
        return [diag("RC706", f"unparseable plan key: {err}", site=site)]
    site = site or str(key)
    out: List[Diagnostic] = []
    if key.family != "graph":
        out.append(diag("RC706", f"plan key family {key.family!r} is not "
                        "'graph'", site=site, family=key.family))
    if key.precision not in PRECISIONS:
        out.append(diag("RC706", f"precision {key.precision!r} not in "
                        f"{PRECISIONS}", site=site))
    if key.tip < 1:
        out.append(diag("RC706", f"tip must be >= 1, got {key.tip}",
                        site=site))
    if key.seed != int(data["seed"]):
        out.append(diag("RC706", f"key seed {key.seed} != plan seed "
                        f"{data['seed']}: the frozen weights would not "
                        "match the key", site=site))

    graph_findings = [d for d in check_graph_dict(data["graph"], site=site)
                      if d.code != "RC707" or key.precision == "int"]
    out.extend(graph_findings)
    if any(d.is_error for d in graph_findings):
        return out
    plan_network = GraphNetwork.from_dict(data["graph"])

    fingerprint = plan_network.fingerprint()
    if key.fingerprint != fingerprint:
        out.append(diag(
            "RC401", f"key fingerprint {key.fingerprint} != fingerprint "
            f"{fingerprint} of the embedded graph: the record was tampered "
            "with or compiled for a different network", site=site,
            key_fingerprint=key.fingerprint, network_fingerprint=fingerprint))
    if network is not None and network.fingerprint() != key.fingerprint:
        out.append(diag(
            "RC401", f"plan fingerprint {key.fingerprint} does not match "
            f"{network.name} ({network.fingerprint()})", site=site,
            key_fingerprint=key.fingerprint, network=network.name))

    try:
        program = lower_graph(plan_network)
    except (GraphError, ConfigError, ShapeError) as err:
        out.append(diag("RC704", f"embedded graph does not lower: {err}",
                        site=site))
        return out
    segments = program.segments
    decisions = data["decisions"]
    if not isinstance(decisions, list) or len(decisions) != len(segments):
        out.append(diag(
            "RC706", f"plan stores {len(decisions) if isinstance(decisions, list) else '?'} "
            f"decisions but the lowered program has {len(segments)} "
            "segments", site=site, segments=len(segments)))
        return out
    for step, entry in zip(segments, decisions):
        if not isinstance(entry, dict) or "sizes" not in entry:
            out.append(diag("RC706", f"segment {step.name!r}: decision "
                            "needs a 'sizes' list", site=site,
                            segment=step.name))
            continue
        sizes = entry["sizes"]
        if (not isinstance(sizes, list)
                or not all(isinstance(s, int) and s >= 1 for s in sizes)
                or sum(sizes) != len(step.levels)):
            out.append(diag(
                "RC706", f"segment {step.name!r}: sizes {sizes!r} do not "
                f"cover its {len(step.levels)} levels", site=site,
                segment=step.name, sizes=sizes))
        if entry.get("join_fused") and step.join is None:
            out.append(diag(
                "RC706", f"segment {step.name!r}: join_fused set but the "
                "segment has no fusable join", site=site,
                segment=step.name))
    return out
