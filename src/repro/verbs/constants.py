"""Enumerations and limits for the verbs layer."""

from __future__ import annotations

import enum
from typing import NamedTuple

__all__ = [
    "MCAST_NODE",
    "mcast_ah",
    "VerbsError",
    "QPType",
    "QPState",
    "Opcode",
    "WCStatus",
    "AddressHandle",
    "MAX_RC_MSG",
    "QPT_RC",
    "QPT_UD",
    "QPS_INIT",
    "QPS_RTS",
    "OP_SEND",
    "OP_RECV",
    "OP_READ",
    "OP_WRITE",
    "WC_SUCCESS",
]

#: Maximum Reliable Connection message size per the InfiniBand spec (§2.2.2).
MAX_RC_MSG = 1 << 30  # 1 GiB

#: sentinel node id in an AddressHandle that designates an InfiniBand
#: multicast group; the handle's qpn field then carries the MGID.
MCAST_NODE = -1


def mcast_ah(mgid: int) -> "AddressHandle":
    """An address handle targeting multicast group ``mgid``."""
    return AddressHandle(MCAST_NODE, mgid)


class VerbsError(Exception):
    """Raised for invalid use of the verbs API (bad state, bad sizes...)."""


class QPType(enum.Enum):
    """RDMA transport service type (§2.2.2)."""

    RC = "reliable_connection"
    UD = "unreliable_datagram"


class QPState(enum.Enum):
    """Simplified Queue Pair state machine (RESET -> INIT -> RTS)."""

    RESET = "reset"
    INIT = "init"
    RTS = "ready_to_send"
    ERROR = "error"


class Opcode(enum.Enum):
    """Work request / completion opcodes."""

    SEND = "send"
    RECV = "recv"
    READ = "rdma_read"
    WRITE = "rdma_write"


class WCStatus(enum.Enum):
    """Work completion status codes (a subset of ``ibv_wc_status``)."""

    SUCCESS = "success"
    LOC_LEN_ERR = "local_length_error"
    REM_ACCESS_ERR = "remote_access_error"
    RNR_RETRY_EXC_ERR = "rnr_retry_exceeded"
    WR_FLUSH_ERR = "flushed"


# The members that code in functions compares against, as module
# globals named after the ``ibv_*`` enumerators.  A member loaded
# through its class, ``Opcode.SEND``, takes the slow attribute path
# that ``EnumType.__getattr__`` gives every class lookup, about ten
# times a global load; code that runs per message or per call imports
# these instead (linter rule VS110).
QPT_RC, QPT_UD = QPType.RC, QPType.UD
QPS_INIT, QPS_RTS = QPState.INIT, QPState.RTS
OP_SEND, OP_RECV, OP_READ, OP_WRITE = (
    Opcode.SEND, Opcode.RECV, Opcode.READ, Opcode.WRITE)
WC_SUCCESS = WCStatus.SUCCESS


class AddressHandle(NamedTuple):
    """Datagram destination: which node and which QP number (UD only)."""

    node_id: int
    qpn: int
