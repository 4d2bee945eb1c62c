"""The paper's flow-control protocols as finite transition systems.

Two families cover all five designs:

* :class:`CreditProtocolModel` — the credited two-sided path (§4.4.1-2):
  SR_RC (credit words over RC), SR_UD (credit datagrams over UD, message
  counting, keepalive), SR_UD_MC (one group send paying credit on every
  member).
* :class:`RingProtocolModel` — the one-sided FreeArr/ValidArr path
  (§4.4.3): RD_RC (receiver pulls with RDMA Read), WR_RC (sender pushes
  with RDMA Write).

One table, :data:`MODELS`, maps each of the five endpoint kinds to its
model.  The models run the transport's own rules, looked up on their
modules at call time: the credit write-back
(:func:`~repro.core.transport.credit.release_credit`), the sender's
max-merge (:func:`~repro.core.transport.credit.merge_credit`) and each
one-sided design's ring caps (``read_rc.ring_caps`` /
``write_rc.ring_caps``).  Whether a credited kind rides UD — lossy,
unordered credit datagrams with keepalive, message loss, completions at
send time, one shared QP — is the ``uses_ud`` bit of its row in
:data:`~repro.core.designs.ENDPOINT_KINDS`; every kind may lose a QP to
the error state.

State layout (all plain nested tuples, hashable):

``state = (shared, peer_0, peer_1, ...)`` — one tuple per peer-stream
(sender's view and that peer's receiver view zipped together; each
stream has its own receiver node).  Abstractions: buffer identity is
dropped (counts only), receiver availability is tracked per stream (the
conservative decomposition of the shared UD receive queue), and
simulated time is dropped entirely — a timeout is just another enabled
transition, so the checker explores both "straggler arrived first" and
"timer fired first".
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import read_rc, write_rc
from repro.core.designs import ENDPOINT_KINDS
from repro.core.transport import credit

from repro.analysis.model.core import Action, ModelBound, ProtocolModel

__all__ = [
    "CreditProtocolModel",
    "MODELS",
    "RingProtocolModel",
    "extract_model",
    "modeled_kinds",
]


# -- credit family ----------------------------------------------------------

# peer-stream tuple indices
CP_TO_SEND, CP_SENT, CP_CREDIT, CP_DATA_FLY, CP_FINAL, CP_CQE, \
    CP_POSTED, CP_CONSUMED, CP_HELD, CP_CFLY, CP_ARRIVED, CP_FLAGS = range(12)
# shared tuple indices
CS_FREE, CS_MC_TOSEND, CS_MC_CQE, CS_DLOSS, CS_CLOSS, CS_FLOSS, \
    CS_QPERR = range(7)
# final-marker lifecycle
F_UNSENT, F_FLY, F_SEEN, F_LOST = range(4)
# peer flags
DETECTED, WEDGED = 1, 2

_CP_KEYS = ("to_send", "sent", "credit", "data_fly", "final", "cqe",
            "posted", "consumed", "held", "credit_fly", "arrived", "flags")


class CreditProtocolModel(ProtocolModel):
    """Transition system of the credited two-sided data path (§4.4.1-2).

    Per stream the sender holds ``to_send`` data messages, consumes one
    credit per message (data *and* final), and draws data buffers from
    the shared pool; the receiver consumes availability, releases held
    buffers back (reposting a Receive), and advertises the absolute
    ``posted`` every ``credit_frequency`` releases.  Lossy transports
    add message/credit/final loss and the §4.4.2 machinery: completions
    at send time, message counting against the final's total, the drain
    timeout declaring a *detected* failure, and the keepalive
    re-advertising absolute credit.
    """

    family = "credit"

    def __init__(self, name: str, bound: ModelBound,
                 multicast: bool = False):
        self.name = name
        self.bound = bound
        self.multicast = multicast
        #: UD: lossy, unordered credit datagrams backed by the keepalive;
        #: the signaled send completes locally (RC: after the hardware
        #: ack, i.e. after delivery); one shared QP, so a QP error takes
        #: down every stream at once.
        self.ud = ENDPOINT_KINDS[name].uses_ud

    # -- state helpers ------------------------------------------------------

    def initial(self) -> Any:
        b = self.bound
        per_peer_messages = 0 if self.multicast else b.messages
        peer = (per_peer_messages, 0, b.window, 0, F_UNSENT, 0,
                b.window, 0, 0, (), 0, 0)
        ud = self.ud
        shared = (b.sender_buffers,
                  b.messages if self.multicast else 0, 0,
                  b.data_loss if ud else 0,
                  b.credit_loss if ud else 0,
                  b.final_loss if ud else 0,
                  b.qp_errors)
        return (shared,) + (peer,) * b.peers

    @staticmethod
    def _avail(p: Tuple) -> int:
        """Receives available: posted (credit accounting) plus the
        silent repost of the final's Receive, minus consumed."""
        extra = 1 if p[CP_FINAL] == F_SEEN else 0
        return p[CP_POSTED] + extra - p[CP_CONSUMED]

    def _data_done(self, sh: Tuple, p: Tuple) -> bool:
        if self.multicast:
            return sh[CS_MC_TOSEND] == 0
        return p[CP_TO_SEND] == 0

    def _resolved(self, sh: Tuple, p: Tuple) -> bool:
        """The stream reached an outcome: clean completion, or failure
        cleanly detected by message counting."""
        if p[CP_FLAGS] & DETECTED:
            return True
        if p[CP_FLAGS] & WEDGED:
            return False
        return (self._data_done(sh, p) and p[CP_FINAL] == F_SEEN
                and p[CP_ARRIVED] == self.bound.messages
                and p[CP_DATA_FLY] == 0)

    def _cfly_add(self, cfly: Tuple[int, ...], value: int) -> Tuple[int, ...]:
        if not self.ud:
            return cfly + (value,)
        return tuple(sorted(cfly + (value,)))

    def _cfly_arrivals(self, cfly: Tuple[int, ...]) -> List[
            Tuple[int, Tuple[int, ...]]]:
        """(value, remaining) choices for the next credit arrival."""
        if not cfly:
            return []
        if not self.ud:
            return [(cfly[0], cfly[1:])]
        out = []
        for v in dict.fromkeys(cfly):  # distinct, insertion order
            rest = list(cfly)
            rest.remove(v)
            out.append((v, tuple(rest)))
        return out

    # -- transitions --------------------------------------------------------

    def successors(self, state: Any) -> List[Tuple[Action, Any]]:
        sh = state[0]
        peers = state[1:]
        out: List[Tuple[Action, Any]] = []

        def emit(name: str, peer: Optional[int], site: str, fault: bool,
                 nsh: Tuple, npeers: Tuple) -> None:
            out.append((Action(name, peer, site, fault),
                        (nsh,) + npeers))

        def with_peer(i: int, q: List) -> Tuple:
            return peers[:i] + (tuple(q),) + peers[i + 1:]

        if self.multicast:
            self._group_successors(sh, peers, emit)

        for i, p in enumerate(peers):
            flags = p[CP_FLAGS]
            if flags & WEDGED:
                # Only flushed completions still drain (buffer hygiene).
                if p[CP_CQE] > 0:
                    q = list(p)
                    q[CP_CQE] -= 1
                    nsh = list(sh)
                    nsh[CS_FREE] += 1
                    emit("poll_cqe", i, "sender", False,
                         tuple(nsh), with_peer(i, q))
                continue

            # sender: post one data message (consumes credit + a buffer)
            if (not self.multicast and p[CP_TO_SEND] > 0
                    and p[CP_SENT] < p[CP_CREDIT] and sh[CS_FREE] > 0):
                q = list(p)
                q[CP_TO_SEND] -= 1
                q[CP_SENT] += 1
                q[CP_DATA_FLY] += 1
                if self.ud:  # UD completes the send locally
                    q[CP_CQE] += 1
                nsh = list(sh)
                nsh[CS_FREE] -= 1
                emit("send_data", i, "sender", False,
                     tuple(nsh), with_peer(i, q))

            # sender: post the final marker (consumes credit, no buffer)
            if (self._data_done(sh, p) and p[CP_FINAL] == F_UNSENT
                    and p[CP_SENT] < p[CP_CREDIT]):
                q = list(p)
                q[CP_SENT] += 1
                q[CP_FINAL] = F_FLY
                emit("send_final", i, "sender", False, sh, with_peer(i, q))

            # receiver: one data message lands in a posted Receive
            if p[CP_DATA_FLY] > 0 and self._avail(p) > 0:
                q = list(p)
                q[CP_DATA_FLY] -= 1
                q[CP_CONSUMED] += 1
                q[CP_ARRIVED] += 1
                q[CP_HELD] += 1
                if not self.ud:  # RC: ack completes the send
                    q[CP_CQE] += 1
                emit("deliver_data", i, "receiver", False, sh, with_peer(i, q))

            # UD only: a datagram with no Receive is silently dropped
            # (unreachable for correct protocols — credit prevents it)
            if self.ud and p[CP_DATA_FLY] > 0 and self._avail(p) == 0:
                q = list(p)
                q[CP_DATA_FLY] -= 1
                emit("drop_no_recv", i, "receiver", False, sh, with_peer(i, q))

            # receiver: the final marker lands (RC: ordered after data)
            if p[CP_FINAL] == F_FLY and self._avail(p) > 0 and (
                    self.ud or p[CP_DATA_FLY] == 0):
                q = list(p)
                q[CP_FINAL] = F_SEEN
                q[CP_CONSUMED] += 1
                emit("deliver_final", i, "receiver", False,
                     sh, with_peer(i, q))
            if (self.ud and p[CP_FINAL] == F_FLY
                    and self._avail(p) == 0):
                q = list(p)
                q[CP_FINAL] = F_LOST
                emit("drop_final_no_recv", i, "receiver", False,
                     sh, with_peer(i, q))

            # receiver: application releases a held buffer -> repost the
            # Receive, advertise credit every credit_frequency releases
            if p[CP_HELD] > 0:
                q = list(p)
                q[CP_HELD] -= 1
                q[CP_POSTED] += 1
                v = credit.release_credit(q[CP_POSTED],
                                          self.bound.credit_frequency)
                if v is not None:
                    q[CP_CFLY] = self._cfly_add(q[CP_CFLY], v)
                emit("release", i, "receiver", False, sh, with_peer(i, q))

            # sender: an in-flight credit value arrives (max-merge)
            for value, rest in self._cfly_arrivals(p[CP_CFLY]):
                q = list(p)
                q[CP_CFLY] = rest
                q[CP_CREDIT] = credit.merge_credit(q[CP_CREDIT], value)
                emit("credit_arrive", i, "sender", False, sh, with_peer(i, q))

            # sender: poll one signaled completion -> buffer reusable
            if not self.multicast and p[CP_CQE] > 0:
                q = list(p)
                q[CP_CQE] -= 1
                nsh = list(sh)
                nsh[CS_FREE] += 1
                emit("poll_cqe", i, "sender", False,
                     tuple(nsh), with_peer(i, q))

            if self.ud:
                # receiver: keepalive re-advertises the absolute credit
                # while the source is still active (idempotent, so a
                # value already in flight is not duplicated)
                active = not (p[CP_FINAL] == F_SEEN
                              and p[CP_ARRIVED] >= self.bound.messages)
                if active and p[CP_POSTED] not in p[CP_CFLY]:
                    q = list(p)
                    q[CP_CFLY] = self._cfly_add(q[CP_CFLY], q[CP_POSTED])
                    emit("keepalive", i, "receiver", False,
                         sh, with_peer(i, q))

                # sender: with nothing in flight, a credit datagram
                # reports fewer messages than were sent; the lost ones'
                # credit comes back, and a lost final is sent again
                if (not flags and p[CP_SENT] > p[CP_CONSUMED]
                        and p[CP_DATA_FLY] == 0 and p[CP_FINAL] != F_FLY):
                    q = list(p)
                    q[CP_SENT] = p[CP_CONSUMED]
                    if p[CP_FINAL] == F_LOST:
                        q[CP_FINAL] = F_UNSENT
                    emit("recover_lost", i, "sender", False,
                         sh, with_peer(i, q))

                # receiver: drain timeout fires -> detected failure
                # (message counting: total known, stragglers impossible)
                if (p[CP_FINAL] == F_SEEN
                        and p[CP_ARRIVED] < self.bound.messages
                        and p[CP_DATA_FLY] == 0):
                    q = list(p)
                    q[CP_FLAGS] = flags | DETECTED
                    emit("drain_timeout", i, "receiver", False,
                         sh, with_peer(i, q))

        self._fault_successors(sh, peers, emit)
        return out

    def _group_successors(self, sh: Tuple, peers: Tuple, emit) -> None:
        """Multicast: one Send serves every member, paying one credit
        and one availability slot per member (flow control per member)."""
        if (sh[CS_MC_TOSEND] > 0 and sh[CS_FREE] > 0
                and all(p[CP_SENT] < p[CP_CREDIT] and not p[CP_FLAGS]
                        for p in peers)):
            npeers = []
            for p in peers:
                q = list(p)
                q[CP_SENT] += 1
                q[CP_DATA_FLY] += 1
                npeers.append(tuple(q))
            nsh = list(sh)
            nsh[CS_FREE] -= 1
            nsh[CS_MC_TOSEND] -= 1
            nsh[CS_MC_CQE] += 1
            emit("send_group", None, "sender", False,
                 tuple(nsh), tuple(npeers))
        if sh[CS_MC_CQE] > 0:
            nsh = list(sh)
            nsh[CS_MC_CQE] -= 1
            nsh[CS_FREE] += 1
            emit("poll_group_cqe", None, "sender", False, tuple(nsh), peers)

    def _fault_successors(self, sh: Tuple, peers: Tuple, emit) -> None:
        for i, p in enumerate(peers):
            if p[CP_FLAGS]:
                continue
            if self.ud and sh[CS_DLOSS] > 0 and p[CP_DATA_FLY] > 0:
                q = list(p)
                q[CP_DATA_FLY] -= 1
                nsh = list(sh)
                nsh[CS_DLOSS] -= 1
                emit("lose_data", i, "fabric", True,
                     tuple(nsh), peers[:i] + (tuple(q),) + peers[i + 1:])
            if self.ud and sh[CS_CLOSS] > 0 and p[CP_CFLY]:
                for value, rest in self._cfly_arrivals(p[CP_CFLY]):
                    q = list(p)
                    q[CP_CFLY] = rest
                    nsh = list(sh)
                    nsh[CS_CLOSS] -= 1
                    emit("lose_credit", i, "fabric", True,
                         tuple(nsh), peers[:i] + (tuple(q),) + peers[i + 1:])
            if self.ud and sh[CS_FLOSS] > 0 and p[CP_FINAL] == F_FLY:
                q = list(p)
                q[CP_FINAL] = F_LOST
                nsh = list(sh)
                nsh[CS_FLOSS] -= 1
                emit("lose_final", i, "fabric", True,
                     tuple(nsh), peers[:i] + (tuple(q),) + peers[i + 1:])
        if sh[CS_QPERR] > 0:
            if self.ud:
                # one shared UD QP: every stream dies at once
                if any(not p[CP_FLAGS] for p in peers):
                    nsh = list(sh)
                    nsh[CS_QPERR] -= 1
                    npeers = tuple(self._wedge(p) for p in peers)
                    emit("qp_error", None, "fabric", True, tuple(nsh), npeers)
            else:
                for i, p in enumerate(peers):
                    if p[CP_FLAGS]:
                        continue
                    nsh = list(sh)
                    nsh[CS_QPERR] -= 1
                    npeers = (peers[:i] + (self._wedge(p),)
                              + peers[i + 1:])
                    emit("qp_error", i, "fabric", True, tuple(nsh), npeers)

    def _wedge(self, p: Tuple) -> Tuple:
        """QP enters ERROR: in-flight messages vanish, outstanding
        signaled WRs flush as error completions (RC) so their buffers
        still recycle, held buffers and credit state are abandoned."""
        q = list(p)
        q[CP_FLAGS] = p[CP_FLAGS] | WEDGED
        if not self.ud:
            q[CP_CQE] += q[CP_DATA_FLY]  # flushed error CQEs
        q[CP_DATA_FLY] = 0
        if q[CP_FINAL] == F_FLY:
            q[CP_FINAL] = F_LOST
        q[CP_CFLY] = ()
        q[CP_HELD] = 0
        return tuple(q)

    # -- properties ---------------------------------------------------------

    def terminal(self, state: Any) -> Optional[str]:
        sh = state[0]
        peers = state[1:]
        if sh[CS_MC_TOSEND] or sh[CS_MC_CQE]:
            return None
        degraded = False
        for p in peers:
            if not self._resolved(sh, p):
                return None
            if p[CP_FLAGS]:
                degraded = True
                continue
            if p[CP_CQE] or p[CP_HELD] or p[CP_CFLY]:
                return None
        return "degraded" if degraded else "done"

    def check(self, state: Any) -> Tuple[Tuple[str, str], ...]:
        sh = state[0]
        peers = state[1:]
        found: List[Tuple[str, str]] = []
        in_use = sh[CS_MC_CQE]
        wedged = False
        for i, p in enumerate(peers):
            if p[CP_FLAGS] & WEDGED:
                wedged = True
                in_use += p[CP_CQE]
                continue
            in_use += p[CP_CQE]
            if not self.ud:
                in_use += p[CP_DATA_FLY]
            if p[CP_SENT] > p[CP_CREDIT]:
                found.append((
                    "credit-conservation",
                    f"peer {i}: sent {p[CP_SENT]} messages against credit "
                    f"{p[CP_CREDIT]} (sent <= credit violated)"))
            if p[CP_CREDIT] > p[CP_POSTED]:
                found.append((
                    "credit-conservation",
                    f"peer {i}: sender holds credit {p[CP_CREDIT]} but the "
                    f"receiver only posted {p[CP_POSTED]} Receives"))
            for v in p[CP_CFLY]:
                if v > p[CP_POSTED]:
                    found.append((
                        "credit-conservation",
                        f"peer {i}: credit {v} in flight exceeds the "
                        f"{p[CP_POSTED]} Receives posted (overgrant)"))
                    break
            fly = p[CP_DATA_FLY] + (1 if p[CP_FINAL] == F_FLY else 0)
            if fly > self._avail(p):
                found.append((
                    "credit-conservation",
                    f"peer {i}: {fly} messages in flight for "
                    f"{self._avail(p)} available Receives (receiver "
                    f"overrun / RNR)"))
        if not wedged and sh[CS_FREE] + in_use != self.bound.sender_buffers:
            found.append((
                "credit-conservation",
                f"sender pool leak: {sh[CS_FREE]} free + {in_use} in use "
                f"!= {self.bound.sender_buffers} buffers"))
        return tuple(found)

    def describe_state(self, state: Any) -> Dict[str, Any]:
        sh = state[0]
        return {
            "shared": {"free_bufs": sh[CS_FREE],
                       "group_to_send": sh[CS_MC_TOSEND],
                       "group_cqe": sh[CS_MC_CQE],
                       "loss_budget": [sh[CS_DLOSS], sh[CS_CLOSS],
                                       sh[CS_FLOSS]],
                       "qp_error_budget": sh[CS_QPERR]},
            "peers": [dict(zip(_CP_KEYS, (list(v) if isinstance(v, tuple)
                                          else v for v in p)))
                      for p in state[1:]],
        }


# -- ring family ------------------------------------------------------------

# RD_RC peer-stream tuple indices
RD_TO_SEND, RD_VFLY_D, RD_VFLY_F, RD_PEND_D, RD_PEND_F, RD_RFLY_D, \
    RD_RFLY_F, RD_LFREE, RD_HELD, RD_FFLY_D, RD_FFLY_F, RD_FINAL_SENT, \
    RD_FINAL_SEEN, RD_FLAGS = range(14)
_RD_KEYS = ("to_send", "valid_fly", "valid_fly_final", "pending",
            "pending_final", "read_fly", "read_fly_final", "local_free",
            "held", "free_fly", "free_fly_final", "final_sent",
            "final_seen", "flags")

# WR_RC peer-stream tuple indices
WR_TO_SEND, WR_RFREE, WR_WCQE, WR_NVALID_D, WR_NVALID_F, WR_HELD, \
    WR_FFLY, WR_FINAL_SENT, WR_FINAL_SEEN, WR_FLAGS = range(10)
_WR_KEYS = ("to_send", "remote_free", "write_cqe", "valid_fly",
            "valid_fly_final", "held", "free_fly", "final_sent",
            "final_seen", "flags")

# shared tuple indices (ring family)
RS_FREE, RS_QPERR = range(2)


class RingProtocolModel(ProtocolModel):
    """Transition system of the FreeArr/ValidArr one-sided path (§4.4.3).

    ``role="read"`` models RD_RC: the sender produces full-buffer
    addresses into the receiver's ValidArr; the receiver joins them with
    free local buffers, issues RDMA Reads, and returns consumed
    addresses through the sender's FreeArr (Algorithm 3).  The final
    marker rides a reserved per-destination buffer outside the pool.

    ``role="write"`` models WR_RC: the sender pops a known-free remote
    buffer, Writes data then the ValidArr notification (RC ordering on
    one QP makes the data land first, which is why the notification
    arrival alone hands the buffer over), and the receiver returns
    addresses through FreeArr on release.

    ``valid_cap`` / ``free_cap`` are the slots per ring: more in-flight
    values than slots overwrite a live slot (a ring overrun).
    """

    family = "ring"

    def __init__(self, name: str, bound: ModelBound, role: str,
                 valid_cap: int, free_cap: int):
        if role not in ("read", "write"):
            raise ValueError(f"unknown ring role {role!r}")
        if min(valid_cap, free_cap) < 1:
            raise ValueError(f"{name}: a ring needs at least one slot")
        self.name = name
        self.bound = bound
        self.role = role
        self.valid_cap = valid_cap
        self.free_cap = free_cap

    # -- state helpers ------------------------------------------------------

    def initial(self) -> Any:
        b = self.bound
        shared = (b.sender_buffers, b.qp_errors)
        if self.role == "read":
            peer = (b.messages, 0, 0, 0, 0, 0, 0, b.window, 0, 0, 0, 0, 0, 0)
        else:
            peer = (b.messages, b.window, 0, 0, 0, 0, 0, 0, 0, 0)
        return (shared,) + (peer,) * b.peers

    def _done(self, p: Tuple) -> bool:
        if self.role == "read":
            return (p[RD_TO_SEND] == 0 and p[RD_FINAL_SENT]
                    and p[RD_FINAL_SEEN]
                    and p[RD_VFLY_D] == p[RD_VFLY_F] == 0
                    and p[RD_PEND_D] == p[RD_PEND_F] == 0
                    and p[RD_RFLY_D] == p[RD_RFLY_F] == 0
                    and p[RD_HELD] == 0
                    and p[RD_FFLY_D] == p[RD_FFLY_F] == 0
                    and p[RD_LFREE] == self.bound.window)
        return (p[WR_TO_SEND] == 0 and p[WR_FINAL_SENT]
                and p[WR_FINAL_SEEN] and p[WR_WCQE] == 0
                and p[WR_NVALID_D] == p[WR_NVALID_F] == 0
                and p[WR_HELD] == 0 and p[WR_FFLY] == 0
                and p[WR_RFREE] == self.bound.window)

    # -- transitions --------------------------------------------------------

    def successors(self, state: Any) -> List[Tuple[Action, Any]]:
        sh = state[0]
        peers = state[1:]
        out: List[Tuple[Action, Any]] = []

        def emit(name: str, peer: int, site: str, fault: bool,
                 nsh: Tuple, q: List) -> None:
            npeers = peers[:peer] + (tuple(q),) + peers[peer + 1:]
            out.append((Action(name, peer, site, fault),
                        (nsh,) + npeers))

        step = (self._read_successors if self.role == "read"
                else self._write_successors)
        for i, p in enumerate(peers):
            flags = p[-1]
            if flags & WEDGED:
                if self.role == "write" and p[WR_WCQE] > 0:
                    q = list(p)
                    q[WR_WCQE] -= 1
                    nsh = (sh[RS_FREE] + 1, sh[RS_QPERR])
                    emit("poll_write_cqe", i, "sender", False, nsh, q)
                continue
            step(sh, p, i, emit)
            if sh[RS_QPERR] > 0:
                emit("qp_error", i, "fabric", True,
                     (sh[RS_FREE], sh[RS_QPERR] - 1), self._wedge(p))
        return out

    def _read_successors(self, sh: Tuple, p: Tuple, i: int, emit) -> None:
        # sender: produce a full buffer's address into ValidArr
        if p[RD_TO_SEND] > 0 and sh[RS_FREE] > 0:
            q = list(p)
            q[RD_TO_SEND] -= 1
            q[RD_VFLY_D] += 1
            emit("produce_valid", i, "sender", False,
                 (sh[RS_FREE] - 1, sh[RS_QPERR]), q)
        # sender: produce the final marker (reserved buffer, no pool)
        if p[RD_TO_SEND] == 0 and not p[RD_FINAL_SENT]:
            q = list(p)
            q[RD_FINAL_SENT] = 1
            q[RD_VFLY_F] += 1
            emit("produce_valid_final", i, "sender", False, sh, q)
        # receiver: a ValidArr write lands (RC FIFO: finals after data)
        if p[RD_VFLY_D] > 0:
            q = list(p)
            q[RD_VFLY_D] -= 1
            q[RD_PEND_D] += 1
            emit("valid_arrive", i, "receiver", False, sh, q)
        if p[RD_VFLY_F] > 0 and p[RD_VFLY_D] == 0:
            q = list(p)
            q[RD_VFLY_F] -= 1
            q[RD_PEND_F] += 1
            emit("valid_arrive_final", i, "receiver", False, sh, q)
        # receiver: the pump joins pending addresses with local buffers
        # (FIFO over pending_remote, so the final reads after the data)
        if p[RD_PEND_D] > 0 and p[RD_LFREE] > 0:
            q = list(p)
            q[RD_PEND_D] -= 1
            q[RD_LFREE] -= 1
            q[RD_RFLY_D] += 1
            emit("post_read", i, "receiver", False, sh, q)
        if p[RD_PEND_F] > 0 and p[RD_PEND_D] == 0 and p[RD_LFREE] > 0:
            q = list(p)
            q[RD_PEND_F] -= 1
            q[RD_LFREE] -= 1
            q[RD_RFLY_F] += 1
            emit("post_read_final", i, "receiver", False, sh, q)
        # receiver: a Read completes
        if p[RD_RFLY_D] > 0:
            q = list(p)
            q[RD_RFLY_D] -= 1
            q[RD_HELD] += 1
            emit("read_done", i, "receiver", False, sh, q)
        if p[RD_RFLY_F] > 0:
            q = list(p)
            q[RD_RFLY_F] -= 1
            q[RD_FINAL_SEEN] = 1
            q[RD_LFREE] += 1      # marker read: local buffer recycles now
            q[RD_FFLY_F] += 1     # return the marker through FreeArr
            emit("read_done_final", i, "receiver", False, sh, q)
        # receiver: application releases a held buffer
        if p[RD_HELD] > 0:
            q = list(p)
            q[RD_HELD] -= 1
            q[RD_LFREE] += 1
            q[RD_FFLY_D] += 1
            emit("release", i, "receiver", False, sh, q)
        # sender: a FreeArr return lands -> pool buffer recycles
        if p[RD_FFLY_D] > 0:
            q = list(p)
            q[RD_FFLY_D] -= 1
            emit("free_arrive", i, "sender", False,
                 (sh[RS_FREE] + 1, sh[RS_QPERR]), q)
        if p[RD_FFLY_F] > 0:
            q = list(p)
            q[RD_FFLY_F] -= 1
            emit("free_arrive_final", i, "sender", False, sh, q)

    def _write_successors(self, sh: Tuple, p: Tuple, i: int, emit) -> None:
        # sender: pop a free remote buffer, Write data + notification
        if p[WR_TO_SEND] > 0 and p[WR_RFREE] > 0 and sh[RS_FREE] > 0:
            q = list(p)
            q[WR_TO_SEND] -= 1
            q[WR_RFREE] -= 1
            q[WR_WCQE] += 1
            q[WR_NVALID_D] += 1
            emit("write_data", i, "sender", False,
                 (sh[RS_FREE] - 1, sh[RS_QPERR]), q)
        # sender: the signaled data Write completes -> local buffer free
        if p[WR_WCQE] > 0:
            q = list(p)
            q[WR_WCQE] -= 1
            emit("poll_write_cqe", i, "sender", False,
                 (sh[RS_FREE] + 1, sh[RS_QPERR]), q)
        # sender: the final marker still consumes a remote buffer
        if p[WR_TO_SEND] == 0 and not p[WR_FINAL_SENT] and p[WR_RFREE] > 0:
            q = list(p)
            q[WR_RFREE] -= 1
            q[WR_FINAL_SENT] = 1
            q[WR_NVALID_F] += 1
            emit("write_final", i, "sender", False, sh, q)
        # receiver: a ValidArr notification lands (RC ordering: the data
        # Write on the same QP landed first; finals after data)
        if p[WR_NVALID_D] > 0:
            q = list(p)
            q[WR_NVALID_D] -= 1
            q[WR_HELD] += 1
            emit("valid_arrive", i, "receiver", False, sh, q)
        if p[WR_NVALID_F] > 0 and p[WR_NVALID_D] == 0:
            q = list(p)
            q[WR_NVALID_F] -= 1
            q[WR_FINAL_SEEN] = 1
            q[WR_FFLY] += 1       # final's buffer returns straight away
            emit("valid_arrive_final", i, "receiver", False, sh, q)
        # receiver: application releases a held buffer through FreeArr
        if p[WR_HELD] > 0:
            q = list(p)
            q[WR_HELD] -= 1
            q[WR_FFLY] += 1
            emit("release", i, "receiver", False, sh, q)
        # sender: a FreeArr return lands -> remote buffer known free
        if p[WR_FFLY] > 0:
            q = list(p)
            q[WR_FFLY] -= 1
            q[WR_RFREE] += 1
            emit("free_arrive", i, "sender", False, sh, q)

    def _wedge(self, p: Tuple) -> List:
        q = [0] * len(p)
        if self.role == "write":
            # flushed error CQEs still recycle the sender's local
            # buffers; everything else is abandoned
            q[WR_WCQE] = p[WR_WCQE]
            q[WR_FINAL_SENT] = p[WR_FINAL_SENT]
            q[WR_FLAGS] = p[WR_FLAGS] | WEDGED
        else:
            q[RD_FINAL_SENT] = p[RD_FINAL_SENT]
            q[RD_FLAGS] = p[RD_FLAGS] | WEDGED
        return q

    # -- properties ---------------------------------------------------------

    def terminal(self, state: Any) -> Optional[str]:
        peers = state[1:]
        if all(self._done(p) for p in peers):
            return "done"
        return None

    def check(self, state: Any) -> Tuple[Tuple[str, str], ...]:
        sh = state[0]
        peers = state[1:]
        found: List[Tuple[str, str]] = []
        wedged = any(p[-1] & WEDGED for p in peers)
        pool_out = 0
        for i, p in enumerate(peers):
            if p[-1] & WEDGED:
                if self.role == "write":
                    pool_out += p[WR_WCQE]
                continue
            if self.role == "read":
                valid_fly = p[RD_VFLY_D] + p[RD_VFLY_F]
                free_fly = p[RD_FFLY_D] + p[RD_FFLY_F]
                pool_out += (p[RD_VFLY_D] + p[RD_PEND_D] + p[RD_RFLY_D]
                             + p[RD_HELD] + p[RD_FFLY_D])
                local = (p[RD_LFREE] + p[RD_RFLY_D] + p[RD_RFLY_F]
                         + p[RD_HELD])
                if local != self.bound.window:
                    found.append((
                        "credit-conservation",
                        f"peer {i}: LocalArr leak — {local} buffers "
                        f"accounted for a window of {self.bound.window}"))
            else:
                valid_fly = p[WR_NVALID_D] + p[WR_NVALID_F]
                free_fly = p[WR_FFLY]
                pool_out += p[WR_WCQE]
                window = (p[WR_RFREE] + p[WR_NVALID_D] + p[WR_NVALID_F]
                          + p[WR_HELD] + p[WR_FFLY])
                if window != self.bound.window:
                    found.append((
                        "credit-conservation",
                        f"peer {i}: remote-buffer leak — {window} addresses "
                        f"accounted for a window of {self.bound.window}"))
            if valid_fly > self.valid_cap:
                found.append((
                    "ring-consistency",
                    f"peer {i}: {valid_fly} in-flight validarr "
                    f"values for {self.valid_cap} slots (overrun)"))
            if free_fly > self.free_cap:
                found.append((
                    "ring-consistency",
                    f"peer {i}: {free_fly} in-flight freearr "
                    f"values for {self.free_cap} slots (overrun)"))
        if not wedged and sh[RS_FREE] + pool_out != self.bound.sender_buffers:
            found.append((
                "credit-conservation",
                f"sender pool leak: {sh[RS_FREE]} free + {pool_out} in "
                f"flight != {self.bound.sender_buffers} buffers"))
        return tuple(found)

    def describe_state(self, state: Any) -> Dict[str, Any]:
        sh = state[0]
        keys = _RD_KEYS if self.role == "read" else _WR_KEYS
        return {
            "shared": {"free_bufs": sh[RS_FREE],
                       "qp_error_budget": sh[RS_QPERR]},
            "peers": [dict(zip(keys, p)) for p in state[1:]],
        }


# -- the table -------------------------------------------------------------

#: endpoint kind -> its model at a bound (registration order).  Ring
#: caps come from the design module at build time, so a test that
#: replaces ``ring_caps`` there changes the runtime and the model alike.
MODELS: Dict[str, Callable[[ModelBound], ProtocolModel]] = {
    "SR_UD": lambda b: CreditProtocolModel("SR_UD", b),
    "SR_UD_MC": lambda b: CreditProtocolModel("SR_UD_MC", b,
                                              multicast=True),
    "RD_RC": lambda b: RingProtocolModel(
        "RD_RC", b, "read", *read_rc.ring_caps(b.sender_buffers)),
    "SR_RC": lambda b: CreditProtocolModel("SR_RC", b),
    "WR_RC": lambda b: RingProtocolModel(
        "WR_RC", b, "write", *write_rc.ring_caps(b.window)),
}


def extract_model(kind: str, bound: Optional[ModelBound] = None
                  ) -> ProtocolModel:
    """Build the protocol model of ``kind`` (default bound if none)."""
    try:
        build = MODELS[kind]
    except KeyError:
        raise LookupError(
            f"endpoint kind {kind!r} has no protocol model; modeled "
            f"kinds: {', '.join(MODELS)}") from None
    return build(bound if bound is not None else ModelBound())


def modeled_kinds() -> Tuple[str, ...]:
    """The endpoint kinds the checker has a model for."""
    return tuple(MODELS)
