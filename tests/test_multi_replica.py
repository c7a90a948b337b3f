"""Multi-replica topology placement.

PR 2 priced the pipeline links of replica 0's chain only — ranks
``0..G_inter-1`` — and used it for every data-parallel replica. That
underprices any machine where a later replica's chain straddles a node
boundary replica 0's does not. These tests pin the new contract:
``Topology.replica_pipeline_ranks`` places each replica explicitly (and
raises on placements that fall off the machine instead of silently
wrapping), every replica prices its own ``pipeline_link_times``, and
``simulate_hetero_pipeline`` reports the slowest replica's schedule —
the one the synchronous data-parallel step waits for.
"""

import pytest

from repro.cluster import Topology
from repro.models import get_spec
from repro.api import Job, Session
from repro.parallel import simulate_hetero_pipeline


class TestReplicaPlacement:
    def test_contiguous_block_placement(self):
        topo = Topology(12)
        assert topo.replica_pipeline_ranks(0, 4) == [0, 1, 2, 3]
        assert topo.replica_pipeline_ranks(1, 4) == [4, 5, 6, 7]
        assert topo.replica_pipeline_ranks(2, 4) == [8, 9, 10, 11]

    def test_tensor_parallel_stride(self):
        topo = Topology(16)
        # mpd = 4 * 2: stage s of replica r roots at r*8 + s*2
        assert topo.replica_pipeline_ranks(1, 4, g_tensor=2) == [8, 10, 12, 14]

    def test_out_of_range_replica_raises(self):
        """The latent bug: placements past the machine used to be the
        caller's problem; now they raise instead of silently wrapping."""
        topo = Topology(8)
        with pytest.raises(IndexError, match="only 8 GPUs"):
            topo.replica_pipeline_ranks(1, 8)
        with pytest.raises(IndexError):
            topo.replica_pipeline_ranks(2, 4)
        with pytest.raises(ValueError):
            topo.replica_pipeline_ranks(-1, 4)

    def test_link_times_range_checked_even_on_duplicates(self):
        """Regression: ``p2p_time``'s src == dst shortcut let an
        out-of-range chain with repeated ranks price its hops at zero."""
        topo = Topology(4)
        with pytest.raises(IndexError):
            topo.pipeline_link_times([5, 5], 10**6)
        with pytest.raises(ValueError, match="share rank"):
            topo.pipeline_link_times([2, 2], 10**6)

    def test_group_spans_nodes_agrees_with_placement(self):
        topo = Topology(12)  # 2 nodes x 6 GPUs
        for replica in range(3):
            ranks = topo.replica_pipeline_ranks(replica, 4)
            crossing = [not topo.same_node(a, b) for a, b in zip(ranks, ranks[1:])]
            assert topo.group_spans_nodes(ranks) == any(crossing)

    def test_straddling_replica_prices_cross_node_links(self):
        topo = Topology(12)
        nbytes = 10**7
        intra = topo.pipeline_link_times(topo.replica_pipeline_ranks(0, 4), nbytes)
        straddle = topo.pipeline_link_times(topo.replica_pipeline_ranks(1, 4), nbytes)
        # replica 1 = ranks 4..7: hop 5->6 crosses the node boundary
        assert straddle[1] > intra[1]
        assert max(straddle) > max(intra)


class TestSlowestReplicaPricing:
    KW = dict(g_inter=4, m=8, mbs=1, t_f_model=0.4, t_b_model=1.2)

    def test_slowest_replica_sets_the_pace(self):
        spec = get_spec("gpt3-xl")
        multi = simulate_hetero_pipeline(spec, n_gpus=12, **self.KW)
        assert multi.n_replicas == 3
        # replica 0 is all-NVLink; the straddling replica is the slowest
        assert multi.slowest_replica != 0
        assert any(t > min(multi.link_times) for t in multi.link_times)

    def test_replica0_only_pricing_is_dead(self):
        """The old path priced every replica like replica 0's intra-node
        chain; the multi-replica sweep must come out strictly slower on
        a machine where a later replica straddles nodes."""
        spec = get_spec("gpt3-xl")
        replica0_only = simulate_hetero_pipeline(spec, n_gpus=4, **self.KW)
        multi = simulate_hetero_pipeline(spec, n_gpus=12, **self.KW)
        assert replica0_only.n_replicas == 1
        assert multi.makespan > replica0_only.makespan

    def test_single_replica_machine_unchanged(self):
        spec = get_spec("gpt3-2.7b")
        trace = simulate_hetero_pipeline(
            spec, g_inter=8, m=4, mbs=1, t_f_model=0.4, t_b_model=1.2, n_gpus=8
        )
        assert trace.n_replicas == 1
        assert trace.slowest_replica == 0
        assert trace.link_times[5] > trace.link_times[0]  # rank 5 -> 6 crosses nodes

    def test_undersized_machine_raises(self):
        spec = get_spec("gpt3-xl")
        with pytest.raises(IndexError):
            simulate_hetero_pipeline(spec, n_gpus=3, **self.KW)

    def test_batch_cost_takes_slowest_replica(self):
        """The sim-fidelity batch bubble reflects the multi-replica sweep:
        it can only grow relative to a replica-0-only chain priced on a
        single-replica machine with the same decomposition."""
        spec = get_spec("gpt3-xl")
        b = Session().breakdown(Job(model="gpt3-xl", n_gpus=64, fidelity="sim"))
        g_inter = b.config.g_inter
        m = b.config.microbatches
        t_f, t_b = b.notes["t_f"], b.notes["t_b"]
        solo = simulate_hetero_pipeline(
            spec,
            g_inter=g_inter,
            m=m,
            mbs=1,
            t_f_model=t_f * g_inter,
            t_b_model=t_b * g_inter,
            n_gpus=g_inter,
        )
        assert b.bubble >= max(solo.makespan - m * (t_f + t_b), 0.0) - 1e-12
