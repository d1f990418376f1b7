"""Every per-node table stays within its capacity to the end of a run.

The paper's node holds small, capped tables: a 64-path route cache, a
64-packet send buffer, a 50-packet interface queue, plus the duplicate-
suppression tables and the negative cache.  A run that leaves any of them
above its cap, or a MAC that remembers a sequence number for more peers than
there are other nodes, has state that grows with the run instead of with the
network.  The route cache's per-link tables are bounded by what reads them:
after an expiry sweep the last-seen times cover only links of cached paths,
and a node whose configuration reads neither table (base DSR: no expiry, no
wider error) holds neither.  Checked on a 200-node discovery flood at ``flood1000``'s node
density and on a short 100-node AllTechniques run; run as a script,
``python -m tests.integration.test_state_caps 1000`` makes the same check on
the 1000-node flood itself (CI does).
"""

import math
import sys
from typing import List

from repro.core.cache import PathCache
from repro.core.config import DsrConfig, ExpiryMode
from repro.core.routes import route_links
from repro.scenarios.builder import SimulationHandle, build_simulation
from repro.scenarios.config import ScenarioConfig
from repro.scenarios.presets import paper_scenario

#: ``flood1000``'s field: 1000 nodes on 6957 m x 1897 m.
_FLOOD_NODES, _FLOOD_WIDTH, _FLOOD_HEIGHT = 1000, 6957.0, 1897.0


def flood(num_nodes: int, seed: int = 1) -> ScenarioConfig:
    """``flood1000``'s discovery flood on a field scaled to keep its node
    density; at 1000 nodes, the ledger's ``flood1000`` scenario itself."""
    side = math.sqrt(num_nodes / _FLOOD_NODES)
    return paper_scenario(pause_time=0.0, seed=seed).but(
        num_nodes=num_nodes,
        field_width=_FLOOD_WIDTH * side,
        field_height=_FLOOD_HEIGHT * side,
        duration=0.75,
        num_sessions=3,
        start_window=0.375,
    )


def over_cap(handle: SimulationHandle) -> List[str]:
    """One line per table of ``handle``'s nodes above its capacity."""
    num_nodes = len(handle.nodes)
    found = []
    for node_id, node in handle.nodes.items():
        agent = node.agent
        tables = {
            "route cache": agent.cache,
            "request table": agent._seen_requests,
            "seen-error table": agent._seen_errors,
            "gratuitous-reply table": agent._grat_replies,
            "send buffer": agent.send_buffer,
            "interface queue": node.mac.queue,
        }
        if agent.negative is not None:
            tables["negative cache"] = agent.negative
        for name, table in tables.items():
            if len(table) > table.capacity:
                found.append(f"node {node_id}: {name} holds {len(table)} > {table.capacity}")
        if len(node.mac._last_seq) >= num_nodes:
            found.append(
                f"node {node_id}: MAC _last_seq holds {len(node.mac._last_seq)} peers"
            )
        found.extend(_link_table_excess(node_id, agent))
    return found


def _link_table_excess(node_id: int, agent) -> List[str]:
    """The route cache's per-link tables, each against what reads it."""
    cache = agent.cache
    found = []
    if not agent.config.wider_error and cache._links_forwarded:
        found.append(
            f"node {node_id}: forwarded-links set holds {len(cache._links_forwarded)} "
            "links with wider error off"
        )
    if isinstance(cache, PathCache):
        if agent.config.expiry_mode is ExpiryMode.NONE:
            stray = len(cache._link_last_seen)
        else:
            held = {link for path in cache.paths() for link in route_links(path.route)}
            stray = len(cache._link_last_seen.keys() - held)
        if stray:
            found.append(
                f"node {node_id}: link last-seen table holds {stray} links "
                "of no cached path"
            )
    return found


def sweep(handle: SimulationHandle) -> None:
    """What the next expiry sweep leaves: every cache pruned at the end of
    the run, with a timeout that keeps every path."""
    for node in handle.nodes.values():
        node.agent.cache.prune_stale(handle.sim.now, math.inf)


def _run(config: ScenarioConfig) -> SimulationHandle:
    handle = build_simulation(config)
    result = handle.run()
    assert result.rreq_sent > 0  # discovery ran: the tables saw traffic
    return handle


def test_a_200_node_flood_keeps_every_table_within_its_cap():
    handle = _run(flood(200))  # base DSR: no sweep runs, no link table is read
    assert over_cap(handle) == []
    # The floods reached every corner: most nodes remember some request.
    remembering = sum(1 for node in handle.nodes.values() if len(node.agent._seen_requests))
    assert remembering > len(handle.nodes) // 2


def test_a_100_node_all_techniques_run_keeps_every_table_within_its_cap():
    config = paper_scenario(
        pause_time=0.0, seed=1, dsr=DsrConfig.all_techniques()
    ).but(duration=5.0, start_window=2.0)
    handle = _run(config)
    sweep(handle)
    assert over_cap(handle) == []
    assert any(len(node.agent.cache) for node in handle.nodes.values())
    assert any(node.agent.cache._link_last_seen for node in handle.nodes.values())


def test_an_over_cap_table_is_reported():
    handle = build_simulation(flood(20))
    node = handle.nodes[3]
    node.agent._seen_requests.insert((0, 1), 0.0)
    node.agent._seen_requests.insert((0, 2), 0.0)
    node.agent._seen_requests.capacity = 1
    node.mac._last_seq.update((peer, 0) for peer in range(20))
    node.agent.cache.note_links_seen([3, 4, 5], 0.0)
    node.agent.cache.note_links_forwarded([3, 4])
    assert over_cap(handle) == [
        "node 3: request table holds 2 > 1",
        "node 3: MAC _last_seq holds 20 peers",
        "node 3: forwarded-links set holds 1 links with wider error off",
        "node 3: link last-seen table holds 2 links of no cached path",
    ]


if __name__ == "__main__":
    nodes = int(sys.argv[1]) if len(sys.argv) > 1 else _FLOOD_NODES
    problems = over_cap(_run(flood(nodes)))
    for line in problems:
        print(line)
    print(f"{nodes}-node flood: {len(problems)} tables over their caps")
    sys.exit(1 if problems else 0)
