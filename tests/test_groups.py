"""Unit tests for the transmission-group abstraction (§4.1, Figure 3)."""

import pytest

from repro.core import TransmissionGroups


class TestConstruction:
    def test_repartition_singletons(self):
        g = TransmissionGroups.repartition(4)
        assert len(g) == 4
        assert [g[i] for i in range(4)] == [(0,), (1,), (2,), (3,)]

    def test_broadcast_single_group(self):
        g = TransmissionGroups.broadcast(4, exclude=0)
        assert len(g) == 1
        assert g[0] == (1, 2, 3)

    def test_broadcast_without_exclusion(self):
        g = TransmissionGroups.broadcast(3)
        assert g[0] == (0, 1, 2)

    def test_multicast_figure_3b(self):
        # Figure 3(b): node A multicasts to G = {{B,C},{D}}.
        g = TransmissionGroups([(1, 2), (3,)])
        assert g[0] == (1, 2)
        assert g[1] == (3,)

    def test_all_destinations_deduplicates(self):
        g = TransmissionGroups([(1, 2), (2, 3), (1,)])
        assert g.all_destinations == (1, 2, 3)

    def test_duplicate_nodes_in_group_collapse(self):
        g = TransmissionGroups([(1, 1, 2)])
        assert g[0] == (1, 2)

    def test_empty_groups_rejected(self):
        with pytest.raises(ValueError):
            TransmissionGroups([])
        with pytest.raises(ValueError):
            TransmissionGroups([(1,), ()])

    def test_negative_node_rejected(self):
        with pytest.raises(ValueError):
            TransmissionGroups([(-1,)])

    def test_broadcast_of_one_node_rejected(self):
        with pytest.raises(ValueError):
            TransmissionGroups.broadcast(1, exclude=0)

    def test_repartition_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            TransmissionGroups.repartition(0)

    def test_equality_and_hash(self):
        a = TransmissionGroups([(1, 2), (3,)])
        b = TransmissionGroups([(2, 1), (3,)])
        assert a == b
        assert hash(a) == hash(b)
        assert a != TransmissionGroups([(1,), (3,)])

    def test_iteration(self):
        g = TransmissionGroups.repartition(3)
        assert list(g) == [(0,), (1,), (2,)]
