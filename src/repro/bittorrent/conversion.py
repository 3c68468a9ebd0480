"""Fragment conversion: one control step's ready pipes become fragments.

At every visited control point the broadcast loop
(:meth:`repro.bittorrent.swarm.BitTorrentBroadcast._drive`) collects the
*ready* pipes — those that accumulated at least one whole fragment of bytes
— and converts each pipe's byte surplus into fragments with the
random-first / rarest-first rule of :class:`repro.bittorrent.selection
.PieceSelector`.  The conversion is the loop's hot spot, so it lives here as
a *kernel* with a fixed array contract and two implementations:

* ``"c"`` — ``_conversion.c`` compiled at import (:mod:`repro.native`) and
  called once per step through :mod:`ctypes`.  Its random draws call numpy's own
  ``random_bounded_uint64`` (shipped in ``numpy/random/lib/libnpyrandom.a``)
  on the caller's bit generator: the routine behind
  ``Generator.integers(0, size)``, so the random stream is consumed bit for
  bit as the Python loop consumes it.
* ``"python"`` — the same loop in NumPy, the fallback when the build or the
  load fails (no compiler, no numpy static library).  It is selected by the
  platform, never by a knob, and announced by one warning.

Both implementations replay every seed golden identically (the replay
contract, docs/simulation.md); ``tests/test_conversion.py`` holds them to
repeated :meth:`PieceSelector.select_from` calls, the scalar oracle.

The contract: :attr:`Kernel.bind` takes the broadcast's persistent state —
the generator, the ``(hosts, fragments)`` bool bitfields ``have`` and
``lack``, the int64 ``availability`` and per-host ``held`` counters, the
int64 ``(hosts, hosts)`` ``wanted`` interest matrix (``None`` when the
caller recomputes interest by matmul), the fragment size and the
random-first threshold — and returns ``convert(up, down, surplus)``.  Given
the step's ready events in order (uploader and downloader indices, int64,
and the float64 byte surplus of each), ``convert`` updates the bound state
and ``surplus`` in place and returns ``(received, offsets)``: event ``e``
received ``received[offsets[e]:offsets[e + 1]]``, in selection order.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from repro import native

#: ``convert(up, down, surplus) -> (received, offsets)``.
Convert = Callable[[np.ndarray, np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]

SOURCE = Path(__file__).with_name("_conversion.c")

#: The kernel draws through numpy's random routines (``libnpyrandom.a``).
LINK = (
    "-L", str(Path(np.__file__).parent / "random" / "lib"), "-lnpyrandom", "-lm",
)


class Kernel(NamedTuple):
    """A conversion implementation: its name and its binder."""

    name: str
    bind: Callable[..., Convert]


def bind_python(
    rng: np.random.Generator,
    have: np.ndarray,
    lack: np.ndarray,
    availability: np.ndarray,
    held: np.ndarray,
    wanted: Optional[np.ndarray],
    fragment_size: float,
    random_first_threshold: int,
) -> Convert:
    """The NumPy kernel: the per-event loop the compiled kernel replays."""
    num_fragments = have.shape[1]
    wanted_buf = np.empty(num_fragments, dtype=bool)
    alive_buf = np.empty(num_fragments, dtype=bool)

    def convert(up, down, surplus):
        received_all = []
        offsets = np.zeros(len(up) + 1, dtype=np.int64)
        for event, (uploader_index, downloader_index) in enumerate(
            zip(up.tolist(), down.tolist())
        ):
            offsets[event] = len(received_all)
            remaining = float(surplus[event])
            downloader_have = have[downloader_index]
            downloader_lack = lack[downloader_index]
            count = int(held[downloader_index])
            received = []
            # Rarest-first selection (PieceSelector.select_from semantics,
            # identical random-stream consumption).  Within one pipe's
            # conversion only the downloader's bitfield changes, and only at
            # just-received fragments — so the candidate set is computed
            # once, consumed via an alive mask, and the rarest tie group
            # drains through list pops; the next tier is recomputed exactly
            # when the scalar code's min would move on.
            np.logical_and(have[uploader_index], downloader_lack, out=wanted_buf)
            candidates = wanted_buf.nonzero()[0]
            if candidates.size == 0:
                # Nothing useful left on this pipe; drop the surplus.
                surplus[event] = 0.0
                continue
            alive = alive_buf[: candidates.size]
            alive.fill(True)
            counts_vals = None
            tie_positions = None
            while remaining >= fragment_size:
                if count < random_first_threshold:
                    live = candidates[alive]
                    if live.size == 0:
                        remaining = 0.0
                        break
                    fragment = int(live[int(rng.integers(0, live.size))])
                    alive[int(np.searchsorted(candidates, fragment))] = False
                    tie_positions = None
                else:
                    if not tie_positions:
                        if counts_vals is None:
                            counts_vals = availability[candidates]
                        live_counts = counts_vals[alive]
                        if live_counts.size == 0:
                            remaining = 0.0
                            break
                        rarest = live_counts.min()
                        tie_positions = (
                            ((counts_vals == rarest) & alive).nonzero()[0].tolist()
                        )
                    pos = tie_positions.pop(int(rng.integers(0, len(tie_positions))))
                    fragment = int(candidates[pos])
                    alive[pos] = False
                remaining -= fragment_size
                received.append(fragment)
                downloader_lack[fragment] = False
                downloader_have[fragment] = True
                availability[fragment] += 1
                count += 1
                if count == num_fragments:
                    break
            held[downloader_index] = count
            surplus[event] = remaining
            if received and wanted is not None:
                # Incremental interest: only the downloader's row and column
                # changed, so the per-receipt column sums collapse into one
                # fancy-indexed sum (the diagonal is forced back to zero).
                shared = have[:, received].sum(axis=1)
                wanted[:, downloader_index] -= shared
                wanted[downloader_index, :] += len(received) - shared
                wanted[downloader_index, downloader_index] = 0
            received_all.extend(received)
        offsets[len(up)] = len(received_all)
        return np.array(received_all, dtype=np.int64), offsets

    return convert


PYTHON_KERNEL = Kernel("python", bind_python)


# ---------------------------------------------------------------------- #
# the compiled kernel
# ---------------------------------------------------------------------- #
def _check(array: np.ndarray, dtype, shape: Tuple[int, ...]) -> None:
    """Refuse an array the compiled kernel would misread through its pointer."""
    if (
        array.dtype != dtype
        or array.shape != shape
        or not array.flags.c_contiguous
        or not array.flags.writeable
    ):
        raise ValueError(
            f"conversion kernel expects a writable C-contiguous {np.dtype(dtype)} "
            f"array of shape {shape}, got {array.dtype} {array.shape}"
        )


def load(path: Path) -> Kernel:
    """Load a built library as the ``"c"`` kernel."""
    function = ctypes.CDLL(str(path)).convert_step
    pointer, i64, f64 = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    function.argtypes = [
        pointer, i64, pointer, pointer, pointer, pointer, pointer, pointer,
        pointer, pointer, i64, i64, f64, i64, pointer, i64, pointer,
    ]
    function.restype = i64

    def bind_c(rng, have, lack, availability, held, wanted, fragment_size,
               random_first_threshold):
        hosts, num_fragments = have.shape
        _check(have, np.bool_, (hosts, num_fragments))
        _check(lack, np.bool_, (hosts, num_fragments))
        _check(availability, np.int64, (num_fragments,))
        _check(held, np.int64, (hosts,))
        if wanted is not None:
            _check(wanted, np.int64, (hosts, hosts))
        # Raw addresses of the bound state, taken once per broadcast.  The
        # kernel draws without the generator's lock: a broadcast loop runs
        # on one thread.
        bitgen = rng.bit_generator.ctypes.bit_generator
        state = (
            held.ctypes.data, have.ctypes.data, lack.ctypes.data,
            availability.ctypes.data,
            None if wanted is None else wanted.ctypes.data,
            hosts, num_fragments, float(fragment_size), random_first_threshold,
        )

        def convert(up, down, surplus):
            events = len(up)
            _check(up, np.int64, (events,))
            _check(down, np.int64, (events,))
            _check(surplus, np.float64, (events,))
            if events and (
                min(up.min(), down.min()) < 0 or max(up.max(), down.max()) >= hosts
            ):
                raise IndexError("conversion event names a host out of range")
            # Each event converts at most floor(surplus / size) fragments
            # (one more covers rounding in the repeated subtraction).
            capacity = int((surplus // fragment_size).sum()) + events
            received = np.empty(capacity, dtype=np.int64)
            offsets = np.empty(events + 1, dtype=np.int64)
            total = function(
                bitgen, events, up.ctypes.data, down.ctypes.data,
                surplus.ctypes.data, *state, received.ctypes.data, capacity,
                offsets.ctypes.data,
            )
            if total < 0:
                raise RuntimeError(f"conversion kernel failed (status {total})")
            return received[:total], offsets

        # The kernel writes through the raw addresses above: keep their
        # owners (and the generator) alive as long as ``convert`` is.
        convert.owners = (rng, have, lack, availability, held, wanted)
        return convert

    return Kernel("c", bind_c)


#: The kernel the broadcast loop binds at the start of every broadcast.
KERNEL: Kernel = native.load_kernel(SOURCE, load, PYTHON_KERNEL, link=LINK)
