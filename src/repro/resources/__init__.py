"""Resource information manager (substrate S4).

Implements §IV-B's "dynamic data structures for resource management":

* :class:`~repro.resources.chains.IntrusiveChain` — the ``Inext``/``Bnext``
  linked-list mechanism of Fig. 3.  The published design threads *nodes* on
  one pointer pair, which only supports membership in a single
  configuration's list — sufficient for full reconfiguration, where a node
  holds one configuration.  With partial reconfiguration a node can hold idle
  *and* busy regions of several configurations at once, so this reproduction
  threads the chains through the **config–task entries** instead (one link
  per region).  This preserves the published O(1) insert/remove and the
  per-configuration search semantics while generalising them; the search-step
  accounting is identical (one step per link traversed).
* :class:`~repro.resources.manager.ResourceInformationManager` — the node
  table, per-configuration idle/busy chains, the blank-node list, all
  scheduler queries (best idle / best blank / best partially-blank /
  FindAnyIdleNode) and all housekeeping mutations, with search-step counting
  per Table I.
* :class:`~repro.resources.arraycore.ArrayRIM` — the flat-table backend
  (``backend="array"``): same queries, charges and trace events served from
  packed integer arrays (see the module docstring for the layout).
* :class:`~repro.resources.susqueue.SuspensionQueue` — the ``SusList`` of
  Fig. 4 (bounded-retry FIFO of suspended tasks), plus its array twin
  :class:`~repro.resources.arraycore.ArraySuspensionQueue`.
* :mod:`~repro.resources.invariants` — a full-state consistency checker used
  by the tests and by the simulator's optional debug mode.

Two backends, selected through :func:`create_manager`: ``"array"`` (the
fast tier: flat tables, the default) and ``"scan"`` (the reference tier:
the object manager's literal linear scans).  Both produce bit-identical
placements, counters, reports and trace digests.
"""

from typing import Optional, Sequence

from repro.model.config import Configuration
from repro.model.node import Node
from repro.resources.arraycore import ArrayRIM, ArraySuspensionQueue
from repro.resources.chains import ChainError, IntrusiveChain
from repro.resources.counters import SearchCounters
from repro.resources.invariants import InvariantViolation, check_invariants
from repro.resources.manager import ResourceInformationManager
from repro.resources.susqueue import SuspendedTask, SuspensionQueue
from repro.trace.bus import TraceBus

#: Valid ``backend=`` selectors, fastest first.
BACKENDS = ("array", "scan")


def resolve_backend(
    backend: str, nodes: Sequence[Node], configs: Sequence[Configuration]
) -> str:
    """The backend that actually runs ``backend`` on this system.

    Rejects names outside :data:`BACKENDS`.  The array tables cannot encode
    per-pair device-family compatibility, so a heterogeneous (family)
    system resolves ``"array"`` to ``"scan"``.  This is the one place the
    choice is made: the manager, the suspension-queue type and
    ``DReAMSim.backend`` all follow its answer.
    """
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; options: {BACKENDS}")
    if backend == "array" and (
        any(c.family is not None for c in configs)
        or any(n.family is not None for n in nodes)
    ):
        return "scan"
    return backend


def create_manager(
    nodes: Sequence[Node],
    configs: Sequence[Configuration],
    counters: Optional[SearchCounters] = None,
    backend: str = "array",
    trace: Optional[TraceBus] = None,
) -> "ArrayRIM | ResourceInformationManager":
    """Build the resource manager :func:`resolve_backend` picks (the manager seam)."""
    if resolve_backend(backend, nodes, configs) == "array":
        return ArrayRIM(nodes, configs, counters=counters, trace=trace)
    return ResourceInformationManager(nodes, configs, counters=counters, trace=trace)


__all__ = [
    "ArrayRIM",
    "ArraySuspensionQueue",
    "BACKENDS",
    "ChainError",
    "IntrusiveChain",
    "InvariantViolation",
    "ResourceInformationManager",
    "SearchCounters",
    "SuspendedTask",
    "SuspensionQueue",
    "check_invariants",
    "create_manager",
    "resolve_backend",
]
