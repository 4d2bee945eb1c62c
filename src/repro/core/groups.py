"""The transmission-group abstraction (§4.1, Figure 3).

A transmission group set ``G`` is a list of node-id sets.  Hashing a tuple
selects a group index; the buffer is then transmitted to *every* node in
that group.  The three patterns of Figure 3:

* repartition — ``G`` contains singletons, one per node;
* multicast   — groups contain several nodes each (the constructor);
* broadcast   — one group holding every (other) node.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

__all__ = ["TransmissionGroups"]


class TransmissionGroups:
    """An immutable list of destination-node sets."""

    def __init__(self, groups: Sequence[Iterable[int]]):
        if not groups:
            raise ValueError("at least one transmission group is required")
        self._groups: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(set(g))) for g in groups
        )
        for i, group in enumerate(self._groups):
            if not group:
                raise ValueError(f"transmission group {i} is empty")
            if any(node < 0 for node in group):
                raise ValueError(f"negative node id in group {i}: {group}")

    def __len__(self) -> int:
        return len(self._groups)

    def __getitem__(self, index: int) -> Tuple[int, ...]:
        return self._groups[index]

    def __iter__(self):
        return iter(self._groups)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TransmissionGroups)
            and self._groups == other._groups
        )

    def __hash__(self) -> int:
        return hash(self._groups)

    @property
    def num_groups(self) -> int:
        return len(self._groups)

    @property
    def all_destinations(self) -> Tuple[int, ...]:
        """Every node that appears in any group, each once, sorted."""
        seen = set()
        for group in self._groups:
            seen.update(group)
        return tuple(sorted(seen))

    # -- Figure 3a and 3c (3b, multicast, is the plain constructor) ---------

    @classmethod
    def repartition(cls, num_nodes: int) -> "TransmissionGroups":
        """One singleton group per node: ``G = {{0},{1},...,{n-1}}``."""
        if num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        return cls([(i,) for i in range(num_nodes)])

    @classmethod
    def broadcast(cls, num_nodes: int,
                  exclude: int = -1) -> "TransmissionGroups":
        """A single group with every node (optionally excluding one).

        Node A broadcasting to the rest of the cluster (Figure 3c) uses
        ``broadcast(n, exclude=A)``.
        """
        members = [i for i in range(num_nodes) if i != exclude]
        if not members:
            raise ValueError("broadcast group would be empty")
        return cls([members])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join("{" + ",".join(map(str, g)) + "}" for g in self._groups)
        return f"G=[{inner}]"
