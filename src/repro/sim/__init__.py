"""Discrete-event simulation kernel.

The whole reproduction runs inside a deterministic discrete-event
simulation: simulated time is an integer number of nanoseconds, CPU
threads (workers, the service and its jobs) are generator-based
processes, hardware (pipes, NICs, the fabric walk, QP state machines,
what lies beneath the MPI and socket calls) is plain scheduled callbacks,
and every measurement reported by the benchmarks is simulated time.

The kernel is intentionally small and simpy-like:

* :class:`~repro.sim.kernel.Simulator` owns the clock and the event queue.
* Processes are plain generators that ``yield`` :class:`Event` objects and
  resume when the event fires, or ``yield`` an ``int`` of nanoseconds to
  sleep (how CPU time is charged).
* :mod:`repro.sim.primitives` provides the blocking building blocks CPU
  threads wait on (FIFO queues, mutexes, broadcast signals, barriers)
  and the callback-driven rate-limited pipe hardware is charged through.
"""

from repro.sim.kernel import (
    AllOf,
    Event,
    Process,
    SimError,
    Simulator,
)
from repro.sim.primitives import (
    Barrier,
    Mutex,
    Notify,
    Queue,
    RatePipe,
)

__all__ = [
    "AllOf",
    "Barrier",
    "Event",
    "Mutex",
    "Notify",
    "Process",
    "Queue",
    "RatePipe",
    "SimError",
    "Simulator",
]
