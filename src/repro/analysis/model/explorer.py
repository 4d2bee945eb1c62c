"""Bounded explicit-state exploration.

Breadth-first search over a :class:`~repro.analysis.model.core.
ProtocolModel`'s reachable states, interning every state once and
keeping parent pointers so the first path found to any state is a
shortest one — counterexamples come out minimal for free.  Every
enabled transition of every state is taken: the graph explored is the
full one, so each verdict and each witness is drawn from it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.model.core import Action, ProtocolModel

__all__ = ["ExploreResult", "explore"]


@dataclass
class ExploreResult:
    """Everything one exploration learned about the state graph."""

    model: ProtocolModel
    #: distinct states interned.
    states: int
    #: transitions taken.
    transitions: int
    #: False when the max_states cap truncated the search.
    complete: bool
    #: terminal classification -> count ("done" / "degraded").
    terminals: Dict[str, int]
    #: ids of non-terminal states with no enabled transition.
    deadlocks: List[int]
    #: property name -> (state id, message) for the first state found
    #: violating it (BFS order: a minimal witness).
    violations: Dict[str, Tuple[int, str]]
    #: ids of states from which no terminal state is reachable, i.e.
    #: eventual-delivery offenders (None when the search was truncated).
    no_terminal_path: Optional[List[int]]
    elapsed: float
    #: interned states, id -> state.
    state_table: List[Any] = field(repr=False)
    #: id -> (parent id, action) or None for the initial state.
    parents: List[Optional[Tuple[int, Action]]] = field(repr=False)

    def path_to(self, state_id: int) -> List[Tuple[Optional[Action], Any]]:
        """Shortest path from the initial state as
        ``[(None, s0), (a1, s1), ..., (ak, target)]``."""
        steps: List[Tuple[Optional[Action], Any]] = []
        cur: Optional[int] = state_id
        while cur is not None:
            link = self.parents[cur]
            if link is None:
                steps.append((None, self.state_table[cur]))
                cur = None
            else:
                parent, action = link
                steps.append((action, self.state_table[cur]))
                cur = parent
        steps.reverse()
        return steps


def explore(model: ProtocolModel) -> ExploreResult:
    """Explore the model's reachable states breadth-first."""
    t0 = time.perf_counter()
    max_states = model.bound.max_states
    init = model.initial()
    states: List[Any] = [init]
    seen: Dict[Any, int] = {init: 0}
    parents: List[Optional[Tuple[int, Action]]] = [None]
    succ_ids: List[List[int]] = []
    terminals: Dict[str, int] = {}
    terminal_ids: List[int] = []
    deadlocks: List[int] = []
    violations: Dict[str, Tuple[int, str]] = {}
    transitions = 0
    complete = True

    i = 0
    while i < len(states):
        s = states[i]
        for prop, msg in model.check(s):
            violations.setdefault(prop, (i, msg))
        term = model.terminal(s)
        if term is not None:
            terminals[term] = terminals.get(term, 0) + 1
            terminal_ids.append(i)
            succ_ids.append([])
            i += 1
            continue
        trans = model.successors(s)
        if not trans:
            deadlocks.append(i)
            succ_ids.append([])
            i += 1
            continue
        row: List[int] = []
        for act, ns in trans:
            j = seen.get(ns)
            if j is None:
                if len(states) >= max_states:
                    complete = False
                    continue
                j = len(states)
                seen[ns] = j
                states.append(ns)
                parents.append((i, act))
            transitions += 1
            row.append(j)
        succ_ids.append(row)
        i += 1

    # Eventual delivery: a state with no path to any terminal is stuck
    # (a deadlock, a livelock cycle, or a silently wedged stream).
    no_terminal_path: Optional[List[int]] = None
    if complete:
        reach = bytearray(len(states))
        rev: List[List[int]] = [[] for _ in states]
        for u, row in enumerate(succ_ids):
            for v in row:
                rev[v].append(u)
        stack = list(terminal_ids)
        for t in stack:
            reach[t] = 1
        while stack:
            v = stack.pop()
            for u in rev[v]:
                if not reach[u]:
                    reach[u] = 1
                    stack.append(u)
        no_terminal_path = [u for u in range(len(states)) if not reach[u]]

    return ExploreResult(
        model=model, states=len(states), transitions=transitions,
        complete=complete, terminals=terminals, deadlocks=deadlocks,
        violations=violations, no_terminal_path=no_terminal_path,
        elapsed=time.perf_counter() - t0,
        state_table=states, parents=parents,
    )
