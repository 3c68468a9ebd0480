"""Max-min fair allocation over an indexed link set.

Max-min fair sharing divides each link's capacity among the flows crossing
it by *progressive filling*: all unfrozen flows grow their rate together
until some link saturates or a flow reaches its rate cap, those flows
freeze, and the process repeats.

Links are identified by dense integer indices (see
:meth:`repro.network.routing.RoutingTable.link_index`) and the set of
concurrent flows is held in a :class:`FlowSet`: a link×flow incidence
structure stored as flat CSR-style index arrays that is maintained
*incrementally* as flows come and go, so a reallocation never rebuilds the
incidence from Python dicts.

:meth:`FlowSet.solve` runs one of two *kernels* over those arrays:

* ``"c"`` — ``_maxmin.c`` compiled at import (:mod:`repro.native`) and
  called once per solve through :mod:`ctypes`.
* ``"python"`` — :func:`solve_python`, a handful of NumPy array operations
  per filling round (``bincount`` for the per-link crossing-flow counts,
  vector minima for the common increment, boolean masks for freezing).  It
  is the fallback when the build or the load fails, selected by the
  platform and announced by one warning.

The compiled kernel replays the NumPy rounds operation for operation, so
both return bit-identical rates (``tests/test_solver.py`` compares them
after every mutation of generated flow-set histories).  The arithmetic
mirrors the scalar reference oracle in ``tests/maxmin_oracle.py`` (same
increments, same freeze tolerances), which the equivalence property tests
in ``tests/test_solver.py`` also assert.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Callable, List, NamedTuple, Optional, Sequence

import numpy as np

from repro import native

#: Saturation tolerance on residual link capacity (matches the scalar solver).
SATURATION_EPS = 1e-9

#: Tolerance used when deciding that a flow reached its rate cap.
CAP_EPS = 1e-12

SOURCE = Path(__file__).with_name("_maxmin.c")


class FlowSet:
    """A dynamic set of flows over a fixed, integer-indexed link universe.

    Parameters
    ----------
    link_capacities:
        Capacity (bytes/second) of link ``i`` at index ``i``.  All capacities
        must be positive.

    Notes
    -----
    Slots are recycled: :meth:`add` returns a small integer slot id that
    stays valid until :meth:`remove`.  The link×flow incidence is kept as two
    flat arrays ``(entry_link, entry_flow)``; adding a flow appends its route
    entries, removing one masks its entries out.  Both are single C-level
    array operations, so the structure survives thousands of open/close
    cycles without ever being rebuilt from scratch.
    """

    def __init__(self, link_capacities: Sequence[float]) -> None:
        # A private contiguous copy: the compiled kernel reads it by address.
        caps = np.array(link_capacities, dtype=np.float64)
        if caps.ndim != 1:
            raise ValueError("link_capacities must be one-dimensional")
        if caps.size and not (caps > 0).all():
            bad = int(np.flatnonzero(caps <= 0)[0])
            raise ValueError(f"link {bad} has non-positive capacity {caps[bad]}")
        self._caps = caps
        self.num_links = int(caps.size)
        # Pool-sized (per-slot) state; grown geometrically.
        pool = 8
        self._active = np.zeros(pool, dtype=bool)
        self._has_links = np.zeros(pool, dtype=bool)
        self._rate_caps = np.full(pool, np.inf, dtype=np.float64)
        self._free: List[int] = list(range(pool - 1, -1, -1))
        # Flat incidence (only entries of active flows are present) stored in
        # oversized buffers; the valid prefix is ``[:_entry_count]``.
        self._entry_link = np.empty(64, dtype=np.int32)
        self._entry_flow = np.empty(64, dtype=np.int32)
        self._entry_count = 0
        self.num_flows = 0
        # The compiled kernel's output buffer, and the addresses it reads
        # the arrays above through (``None`` after any of them moves).
        self._rates = np.zeros(pool, dtype=np.float64)
        self._addresses: Optional[tuple] = None

    # ------------------------------------------------------------------ #
    # pool management
    # ------------------------------------------------------------------ #
    @property
    def pool_size(self) -> int:
        """Current slot-array length (valid slot ids are ``< pool_size``)."""
        return int(self._active.size)

    def _grow(self) -> None:
        old = self._active.size
        new = old * 2
        self._active = np.concatenate([self._active, np.zeros(old, dtype=bool)])
        self._has_links = np.concatenate([self._has_links, np.zeros(old, dtype=bool)])
        self._rate_caps = np.concatenate([self._rate_caps, np.full(old, np.inf)])
        self._rates = np.zeros(new, dtype=np.float64)
        self._addresses = None
        self._free.extend(range(new - 1, old - 1, -1))

    def add(
        self,
        link_indices: Sequence[int],
        rate_cap: Optional[float] = None,
        assume_unique: bool = False,
    ) -> int:
        """Register a flow crossing ``link_indices`` and return its slot id
        (a one-item :meth:`add_many`)."""
        return self.add_many([link_indices], [rate_cap], assume_unique)[0]

    def add_many(
        self,
        routes: Sequence[Sequence[int]],
        rate_caps: Sequence[Optional[float]],
        assume_unique: bool = False,
    ) -> List[int]:
        """Register one flow per route, capped at the matching rate cap.

        Every flow is validated before any is added, the routes' entries join
        the incidence in one write, and the slot ids come off the free list
        in order, exactly as from one :meth:`add` per flow.  Duplicate links
        in a route count once, as in the scalar allocator; callers whose
        routes are simple paths (e.g. the fluid engine's shortest-path
        routes) pass ``assume_unique=True`` to skip the dedup.
        """
        caps = [np.inf if cap is None else float(cap) for cap in rate_caps]
        if len(caps) != len(routes):
            raise ValueError("need one rate cap per route")
        if not caps:
            return []
        if min(caps) <= 0:
            raise ValueError(f"rate_cap must be positive, got {min(caps)}")
        if not assume_unique:
            routes = [np.unique(np.asarray(route, dtype=np.int32)) for route in routes]
        sizes = [len(route) for route in routes]
        entries = np.concatenate(routes, dtype=np.int32, casting="unsafe")
        # Read as unsigned, a negative index is huge: one compare checks both ends.
        if np.count_nonzero(entries.view(np.uint32) >= self.num_links):
            raise IndexError("link index out of range")
        free = self._free
        slots = []
        for _ in caps:
            if not free:
                self._grow()
            slots.append(free.pop())
        index = np.array(slots)
        self._active[index] = True
        self._has_links[index] = [size > 0 for size in sizes]
        self._rate_caps[index] = caps
        start, end = self._entry_count, self._entry_count + entries.size
        if end > self._entry_link.size:
            spare = np.empty(max(self._entry_link.size * 2, end) - start, dtype=np.int32)
            self._entry_link = np.concatenate([self._entry_link[:start], spare])
            self._entry_flow = np.concatenate([self._entry_flow[:start], spare])
            self._addresses = None
        self._entry_link[start:end] = entries
        self._entry_flow[start:end] = index.repeat(sizes)
        self._entry_count = end
        self.num_flows += len(slots)
        return slots

    def remove(self, slot: int) -> None:
        """Drop the flow in ``slot`` (a one-item :meth:`remove_many`)."""
        self.remove_many([slot])

    def remove_many(self, slots: Sequence[int]) -> None:
        """Drop the flows in ``slots``; their entries leave the incidence in
        one compaction.

        Raises :class:`KeyError`, with the set unchanged, if a slot is
        inactive or listed twice.  Freed slots are recycled last-in first-out
        in the order given, exactly as one :meth:`remove` call per slot.
        """
        slots = [int(slot) for slot in slots]
        active, pool = self._active, self._active.size
        if len(set(slots)) != len(slots) or not all(
            0 <= slot < pool and active[slot] for slot in slots
        ):
            raise KeyError(f"slots {slots} are not distinct active flows")
        index = np.array(slots, dtype=np.intp)
        active[index] = False
        self._has_links[index] = False
        self._rate_caps[index] = np.inf
        # Only active flows have entries, so the ones to keep are exactly
        # those whose flow is still active.
        count = self._entry_count
        keep = active[self._entry_flow[:count]]
        kept = int(np.count_nonzero(keep))
        self._entry_link[:kept] = self._entry_link[:count][keep]
        self._entry_flow[:kept] = self._entry_flow[:count][keep]
        self._entry_count = kept
        self._free.extend(slots)
        self.num_flows -= len(slots)

    # ------------------------------------------------------------------ #
    # capacity changes
    # ------------------------------------------------------------------ #
    def link_capacity(self, link: int) -> float:
        """Current capacity of link ``link`` (bytes/second)."""
        if not 0 <= link < self.num_links:
            raise IndexError(f"link index {link} out of range")
        return float(self._caps[link])

    def set_link_capacity(self, link: int, capacity: float) -> None:
        """Change one link's capacity; takes effect at the next :meth:`solve`.

        Capacity drift is a first-class transition of the multi-tenant
        workload model: callers (``FluidNetwork.set_link_capacity``) must
        settle any anchored byte state *before* mutating, exactly as for a
        flow arrival.
        """
        if not 0 <= link < self.num_links:
            raise IndexError(f"link index {link} out of range")
        if capacity <= 0:
            raise ValueError(f"link capacity must be positive, got {capacity}")
        self._caps[link] = float(capacity)

    # ------------------------------------------------------------------ #
    # solving
    # ------------------------------------------------------------------ #
    def solve(self) -> np.ndarray:
        """Max-min fair rates, indexed by slot id.

        Inactive slots read 0.  Flows with no links and no rate cap read
        ``inf`` (loopback transfers are only bounded by the caller).
        """
        return KERNEL.solve(self)

    def __len__(self) -> int:
        return self.num_flows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FlowSet(links={self.num_links}, flows={self.num_flows}, "
            f"entries={self._entry_count})"
        )


def solve_python(flows: FlowSet) -> np.ndarray:
    """The NumPy kernel: :meth:`FlowSet.solve` by array operations.

    The progressive filling works on arrays compacted to the active
    linked flows, and exploits the filling invariant that every unfrozen
    flow carries the same allocation: the common *fill level* is a
    scalar accumulating exactly the increments the scalar reference adds
    per flow, so the two implementations produce identical rates.
    """
    pool = flows._active.size
    rates = np.zeros(pool, dtype=np.float64)
    # Link-free flows are bounded only by their cap.
    loop = flows._active & ~flows._has_links
    if loop.any():
        rates[loop] = flows._rate_caps[loop]
    linked = flows._active & flows._has_links
    if not linked.any():
        return rates

    slots = np.flatnonzero(linked)
    flow_count = slots.size
    caps = flows._rate_caps[slots]
    finite_cap = np.isfinite(caps)
    any_finite_cap = bool(finite_cap.any())
    entry_link = flows._entry_link[: flows._entry_count]
    # Entries reference pool slots; renumber them to the compact ids.
    entry_flow = np.searchsorted(slots, flows._entry_flow[: flows._entry_count])

    out = np.zeros(flow_count, dtype=np.float64)
    unfrozen = np.ones(flow_count, dtype=bool)
    remaining = flows._caps.copy()
    fill = 0.0

    # Every unfrozen flow crosses at least one link, so some link always
    # has a positive crossing count and the common increment is finite.
    # Each round freezes at least one flow (defensively: all of them),
    # so the loop terminates after at most flow_count rounds.
    for _ in range(flow_count + flows.num_links + 2):
        entry_live = unfrozen[entry_flow]
        counts = np.bincount(entry_link[entry_live], minlength=flows.num_links)
        crossed = counts > 0
        increment = float((remaining[crossed] / counts[crossed]).min())
        frozen = np.zeros(flow_count, dtype=bool)
        if any_finite_cap:
            cap_flows = unfrozen & finite_cap
            if cap_flows.any():
                residual = caps[cap_flows] - fill
                res_min = float(residual.min())
                if res_min < increment:
                    increment = res_min
                frozen[np.flatnonzero(cap_flows)[residual <= increment + CAP_EPS]] = True
        if increment < 0.0:
            increment = 0.0

        fill += increment
        remaining -= increment * counts
        np.maximum(remaining, 0.0, out=remaining)

        saturated = crossed & (remaining <= SATURATION_EPS)
        if saturated.any():
            frozen[entry_flow[entry_live & saturated[entry_link]]] = True
        frozen &= unfrozen
        if not frozen.any():
            # Numerical corner: freeze everything to guarantee termination.
            frozen = unfrozen.copy()
        out[frozen] = fill
        unfrozen &= ~frozen
        if not unfrozen.any():
            break
    rates[slots] = out
    return rates


class Kernel(NamedTuple):
    """A solve implementation: its name and ``solve(flow_set) -> rates``."""

    name: str
    solve: Callable[[FlowSet], np.ndarray]


PYTHON_KERNEL = Kernel("python", solve_python)


def load(path: Path) -> Kernel:
    """Load a built library as the ``"c"`` kernel."""
    function = ctypes.CDLL(str(path)).solve
    pointer, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    function.argtypes = [i64, i64, i64, f64, f64] + [pointer] * 7
    function.restype = i64

    def solve_c(flows: FlowSet) -> np.ndarray:
        addresses = flows._addresses
        if addresses is None:
            # Reading an array's address costs microseconds; a solve with
            # few flows costs about as much, so they are read once per move.
            addresses = flows._addresses = tuple(
                array.ctypes.data
                for array in (
                    flows._active, flows._has_links, flows._rate_caps,
                    flows._entry_link, flows._entry_flow, flows._caps, flows._rates,
                )
            )
        status = function(
            flows._active.size, flows._entry_count, flows.num_links,
            SATURATION_EPS, CAP_EPS, *addresses,
        )
        if status:
            raise RuntimeError(f"max-min solve kernel failed (status {status})")
        return flows._rates.copy()

    return Kernel("c", solve_c)


#: The kernel :meth:`FlowSet.solve` runs.
KERNEL: Kernel = native.load_kernel(SOURCE, load, PYTHON_KERNEL)
