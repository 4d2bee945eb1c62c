"""The shared transport runtime beneath the endpoint designs.

The paper's designs differ along two axes only (endpoint count,
transport mechanism); everything else — per-peer connection state, the
credit/FreeArr/ValidArr flow-control machinery, GETFREE/RELEASE buffer
rings, completion dispatch — is common.  This package is that common
runtime, so each design is a thin posting policy:

::

    designs        sr_ud / sr_rc / read_rc / write_rc / mcast / baselines,
                   one class pair per row of designs.ENDPOINT_KINDS
                        |  (posting policy: what WR to post where)
    transport      connections . credit . rings . dispatch . runtime
                        |  (verbs objects, process fragments)
    verbs          QPs, CQs, MRs, connection manager
                        |  (NIC model, packets)
    fabric         links, switch, loss/reorder injection
                        |  (events, processes)
    sim            discrete-event kernel (integer nanoseconds)

Submodules:

* :mod:`~repro.core.transport.connections` — the per-peer connection
  records, one class per role, and the RC connect loops.
* :mod:`~repro.core.transport.credit` — the §4.4 credit schemes as
  policy objects (credit words, credit datagrams, ring boards).
* :mod:`~repro.core.transport.rings` — pending-buffer refcounts,
  circular-queue cursors.
* :mod:`~repro.core.transport.dispatch` — the completion-dispatch loop.
* :mod:`~repro.core.transport.runtime` — the four endpoint base
  classes wiring it all together: ``SendEndpoint`` / ``ReceiveEndpoint``
  (every design and both baselines descend from them) and the credited
  two-sided pair ``CreditedSendEndpoint`` / ``CreditedReceiveEndpoint``.

The §4.2 vocabulary (:mod:`repro.core.endpoint`) sits below this
package and imports nothing from it.
"""

from repro.core.transport.connections import (
    rc_connect_receivers,
    rc_connect_senders,
)
from repro.core.transport.dispatch import CompletionDispatcher
from repro.core.transport.rings import (
    PendingTable,
    RingCursor,
    post_ring_write,
)

__all__ = [
    "CompletionDispatcher",
    "PendingTable",
    "RingCursor",
    "post_ring_write",
    "rc_connect_receivers",
    "rc_connect_senders",
]
