"""Tests for the network substrate (links, topology, delay models)."""

import pytest

from repro.framework import DReAMSim
from repro.model import Configuration, Node, Task
from repro.network import (
    FixedDelayModel,
    Link,
    LinkClass,
    Topology,
    TransferDelayModel,
    transfer_time,
)
from repro.rng import RNG
from repro.workload import ConfigSpec, NodeSpec, TaskSpec
from repro.workload.generator import (
    generate_configs,
    generate_nodes,
    generate_task_stream,
)


def node(no=0, area=2000, delay=0):
    return Node(node_no=no, total_area=area, network_delay=delay)


def config(no=0, area=500, bsize=32_768):
    return Configuration(config_no=no, req_area=area, config_time=10, bsize=bsize)


class TestLinks:
    def test_transfer_time_formula(self):
        link = Link(latency=2, bandwidth=100)
        assert link.transfer_time(0) == 2
        assert link.transfer_time(100) == 3
        assert link.transfer_time(101) == 4  # ceil

    def test_presets_ordering(self):
        wired = Link.preset(LinkClass.WIRED)
        wifi = Link.preset(LinkClass.WIRELESS)
        wan = Link.preset(LinkClass.WAN)
        payload = 64_000
        assert wired.transfer_time(payload) < wifi.transfer_time(payload)
        assert wired.latency < wan.latency

    def test_invalid_links(self):
        with pytest.raises(ValueError):
            Link(latency=-1, bandwidth=10)
        with pytest.raises(ValueError):
            Link(latency=0, bandwidth=0)
        with pytest.raises(ValueError):
            Link(latency=0, bandwidth=10).transfer_time(-1)

    def test_path_transfer_is_sum(self):
        a = Link(latency=1, bandwidth=100)
        b = Link(latency=5, bandwidth=50)
        assert transfer_time([a, b], 100) == (1 + 1) + (5 + 2)


class TestTopology:
    def test_star_paths(self):
        nodes = [node(i) for i in range(3)]
        topo = Topology.star(nodes, link_class=LinkClass.WIRED)
        for n in nodes:
            assert topo.hop_count(n.node_no) == 1
            assert topo.reachable(n.node_no)

    def test_clustered_two_hops(self):
        nodes = [node(i) for i in range(4)]
        topo = Topology.clustered(nodes, cluster_size=2)
        assert topo.hop_count(0) == 2
        # nodes in the same cluster share the backbone link cost
        assert topo.comm_time(0, 1000) == topo.comm_time(1, 1000)

    def test_unknown_node_raises(self):
        topo = Topology.star([node(0)])
        with pytest.raises(KeyError):
            topo.path_to(99)

    def test_unreachable_node_raises(self):
        topo = Topology()
        topo.add_node(node(5))
        with pytest.raises(KeyError, match="unreachable"):
            topo.path_to(5)

    def test_min_latency_routing(self):
        topo = Topology()
        fast = Link(latency=1, bandwidth=1000)
        slow = Link(latency=50, bandwidth=1000)
        topo.connect("RMS", "sw", fast)
        topo.connect("sw", 7, fast)
        topo.connect("RMS", 7, slow)  # direct but slower
        assert topo.hop_count(7) == 2  # routes via the switch

    def test_cluster_size_validated(self):
        with pytest.raises(ValueError):
            Topology.clustered([node(0)], cluster_size=0)


class TestDelayModels:
    def test_fixed_model_matches_node_delay(self):
        m = FixedDelayModel()
        n = node(delay=7)
        t = Task(task_no=0, required_time=10, pref_config=config())
        assert m.comm_time(n, t) == 7
        assert m.config_transfer_time(n, config()) == 0

    def test_transfer_model_uses_topology(self):
        n = node(0)
        topo = Topology.star([n], link=Link(latency=2, bandwidth=1000))
        m = TransferDelayModel(topo)
        t = Task(task_no=0, required_time=10, pref_config=config(), data=5000)
        assert m.comm_time(n, t) == 2 + 5
        assert m.config_transfer_time(n, config(bsize=2000)) == 2 + 2

    def test_non_numeric_data_costs_latency_only(self):
        n = node(0)
        topo = Topology.star([n], link=Link(latency=3, bandwidth=1000))
        m = TransferDelayModel(topo)
        t = Task(task_no=0, required_time=10, pref_config=config(), data=None)
        assert m.comm_time(n, t) == 3

    def test_bitstream_cache_hits_skip_transfer(self):
        n = node(0)
        topo = Topology.star([n], link=Link(latency=1, bandwidth=100))
        m = TransferDelayModel(topo, cache_size=2)
        c = config(no=3, bsize=1000)
        first = m.config_transfer_time(n, c)
        second = m.config_transfer_time(n, c)
        assert first > 0 and second == 0
        assert m.cache_hits == 1 and m.cache_misses == 1
        assert m.cache_hit_rate == 0.5

    def test_cache_lru_eviction(self):
        n = node(0)
        topo = Topology.star([n], link=Link(latency=1, bandwidth=100))
        m = TransferDelayModel(topo, cache_size=1)
        c1, c2 = config(no=1, bsize=100), config(no=2, bsize=100)
        m.config_transfer_time(n, c1)
        m.config_transfer_time(n, c2)  # evicts c1
        assert m.config_transfer_time(n, c1) > 0  # miss again

    def test_cache_size_validated(self):
        with pytest.raises(ValueError):
            TransferDelayModel(Topology(), cache_size=-1)


class TestFrameworkIntegration:
    def _run(self, network=None, seed=5):
        rng = RNG(seed=seed)
        nodes = generate_nodes(NodeSpec(count=10), rng)
        configs = generate_configs(ConfigSpec(count=6), rng)
        stream = generate_task_stream(TaskSpec(count=80), configs, rng)
        sim = DReAMSim(nodes, configs, stream, partial=True, network=network)
        return sim.run(), nodes

    def test_network_model_raises_waits(self):
        base, _ = self._run(network=None)
        rng = RNG(seed=5)
        nodes = generate_nodes(NodeSpec(count=10), rng)
        slow = TransferDelayModel(
            Topology.star(nodes, link=Link(latency=40, bandwidth=64))
        )
        networked, _ = self._run(network=slow)
        assert (
            networked.report.avg_waiting_time_per_task
            > base.report.avg_waiting_time_per_task
        )
        # Every completed task paid at least the link latency.
        done = [t for t in networked.tasks if t.status.value == "completed"]
        assert done and all(t.comm_time >= 40 for t in done)

    def test_bitstream_cache_reduces_config_payments(self):
        def run_cached(cache_size):
            rng = RNG(seed=6)
            nodes = generate_nodes(NodeSpec(count=10), rng)
            configs = generate_configs(ConfigSpec(count=6), rng)
            stream = generate_task_stream(TaskSpec(count=120), configs, rng)
            topo = Topology.star(nodes, link=Link(latency=1, bandwidth=256))
            model = TransferDelayModel(topo, cache_size=cache_size)
            sim = DReAMSim(nodes, configs, stream, partial=True, network=model)
            result = sim.run()
            paid = sum(
                t.config_time_paid
                for t in result.tasks
                if t.status.value == "completed"
            )
            return paid, model

        paid_nocache, _ = run_cached(0)
        paid_cache, model = run_cached(6)
        assert model.cache_hits > 0
        assert paid_cache < paid_nocache


def test_cli_import_leaves_networkx_unloaded_until_a_topology_needs_it():
    """networkx is an optional extra: importing the CLI must not load it,
    and a Topology still builds and routes once something asks for one."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro

    code = (
        "import sys\n"
        "import repro.cli.main\n"
        "assert 'networkx' not in sys.modules, 'networkx loaded at import'\n"
        "from repro.model import Node\n"
        "from repro.network import Topology\n"
        "nodes = [Node(node_no=i, total_area=100) for i in range(4)]\n"
        "topo = Topology.clustered(nodes, cluster_size=2)\n"
        "assert topo.hop_count(3) == 2 and topo.reachable(0)\n"
        "assert 'networkx' in sys.modules\n"
    )
    src = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
