"""Event-driven simulator of the coupled (1 server) and decoupled (2 server)
slotted priority queue.

Both packet classes arrive Poisson; short packets have strict non-preemptive
priority, FIFO within class. Service only starts on slot boundaries (slot =
short TTI) and every service duration is a whole number of slots, so the
scheduler can run boundary-to-boundary instead of slot-by-slot: each loop
iteration starts at least one service. Long packets draw their SNR (hence
TTI) once, on arrival. The decoupled topology doubles both arrival rates and
lets two servers share the same two queues, keeping per-server utilization
equal to the coupled baseline. That is `run()`'s default mode, "aligned";
its oracle-only modes "unaligned" and "exponential" change only the drawn
durations and one flag of the loop.

A run has four steps. Each class draws its arrival times and service
durations as read-only arrays (`_draw`), the arrivals at the config's
per-server rate whatever the topology; a run that needs more arrivals draws
again, at twice the size, from the same seeds. A class's draw is one fill
of unit exponentials per stream, finished in place (compiled, by one pass of
`_schedule.c` over each array): gaps into arrival times, SNRs into long TTIs
in slots. The boundary loop schedules them, reading arrival k of an n-server
run as `arrivals[k] * (1.0 / n)`, which is exact; each start's record
carries its own arrival and duration.
Statistics, the trace and packets are then built from what the loop wrote.
The trace is CSV rows that end in CRLF: the writer merges the arrivals,
starts and departures, each already in time order, straight from the draws
and records, and formats the rows (times exactly as `%.9g`) into a byte
buffer a chunk at a time. Packets come after the trace's read of the
records, as one `PacketColumns` record that yields `Packet` rows only when
iterated: its columns are the run's own record arrays, scaled into real
time in place, then read-only, and the departure column, all six carved
from one block that each collecting run allocates afresh.

The draw filler, the loop and the writer come as one `_Kernel` from one
`_kernel()` call: `_schedule.c` compiled on first use, or, when no compiler
works, the Python twins `_fill_draw` (bit-identical, finishing the arrivals
in numpy and the long TTIs through `traffic.sample_long_services`),
`_schedule_py` (bit-identical) and `_write_trace` (byte-identical, which
builds and sorts the events instead of merging them).

Last, a run leaves its draws, 16 bytes per drawn arrival, in a one-place
slot that the next run takes them from by `_take_draws`'s rule: a decoupled
run after a coupled one with the same seed (as `sojourn-sweep` makes at each
load point) draws nothing. Nothing writes a held draw. Each class's draw is
one block and a run's sojourns are another, so the allocator hands freed
blocks to the next run without fresh pages.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import operator
import os
import subprocess
import tempfile
import threading
import warnings
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .traffic import (
    ChannelModel,
    RateAdaptationTable,
    Scenario,
    TrafficConfig,
    long_service_moments,
    sample_long_services,
)

__all__ = [
    "Topology",
    "Packet",
    "PacketColumns",
    "ClassStats",
    "SojournSummary",
    "SweepPoint",
    "run",
    "sweep",
]

N_BATCHES = 32
_T975_31 = 2.039513446396408  # Student's t 0.975 quantile, N_BATCHES - 1 dof; tested


class Topology(Enum):
    COUPLED = "coupled"
    DECOUPLED = "decoupled"

    @property
    def n_servers(self) -> int:
        return 1 if self is Topology.COUPLED else 2


@dataclass(frozen=True)
class Packet:
    """One simulated packet, as a row of `PacketColumns`."""

    kind: str  # "short" | "long"
    arrival_time: float
    service_duration: float
    start_time: float
    departure_time: float
    server: int

    def __post_init__(self) -> None:
        if self.start_time < self.arrival_time:
            raise ValueError("service cannot start before arrival")
        tol = 1e-9 * max(1.0, abs(self.departure_time))
        if abs(self.departure_time - (self.start_time + self.service_duration)) > tol:
            raise ValueError("departure must equal start + service duration")


_KINDS = ("short", "long")
_MODES = ("aligned", "unaligned", "exponential")  # run()'s service modes
_CHUNK = 16384  # rows turned into Python objects at a time


@dataclass(frozen=True, eq=False)
class PacketColumns:
    """Every served packet of a run, as read-only columns in start order.

    Times are in real units; `class_code` is 0 for short and 1 for long.
    Iterating yields one `Packet` per start, built (and checked) on demand.

    A run's six columns are views of one block of 41 bytes per start, so a
    column the caller keeps keeps the whole block alive: all six columns'
    memory, not just its own.
    """

    class_code: np.ndarray
    arrival_time: np.ndarray
    service_duration: np.ndarray
    start_time: np.ndarray
    departure_time: np.ndarray
    server: np.ndarray

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.class_code, self.arrival_time, self.service_duration,
                self.start_time, self.departure_time, self.server)

    def __post_init__(self) -> None:
        for column in self._columns():
            column.setflags(write=False)

    def __len__(self) -> int:
        return len(self.start_time)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PacketColumns):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self._columns(), other._columns()))

    def __iter__(self) -> Iterator[Packet]:
        for lo in range(0, len(self), _CHUNK):
            part = (column[lo:lo + _CHUNK].tolist() for column in self._columns())
            for c, a, d, s, e, j in zip(*part):
                yield Packet(_KINDS[c], a, d, s, e, j)


@dataclass(frozen=True)
class ClassStats:
    count: int
    mean: float
    ci95: float  # batch-means 95% half width


@dataclass(frozen=True)
class SojournSummary:
    """Per-class sojourn statistics plus conservation diagnostics."""

    short: ClassStats
    long: ClassStats
    busy_fraction: tuple[float, ...]  # one entry per server
    avg_in_system: float
    arrival_rate_estimate: float
    measurement_time: float
    converged: bool
    packets: PacketColumns | None = None

    @property
    def mean_busy_fraction(self) -> float:
        return sum(self.busy_fraction) / len(self.busy_fraction)

    @property
    def little_residual(self) -> float:
        """|L - lambda*W| / (lambda*W) over the measurement window."""
        n = self.short.count + self.long.count
        if n == 0 or self.measurement_time <= 0:
            return math.nan
        w = (self.short.count * (self.short.mean if self.short.count else 0.0)
             + self.long.count * (self.long.mean if self.long.count else 0.0)) / n
        lw = self.arrival_rate_estimate * w
        if lw <= 0:
            return math.nan
        return abs(self.avg_in_system - lw) / lw


def _class_stats(data: np.ndarray, scale: float) -> ClassStats:
    """Statistics of the sojourns in `data`, which is scaled in place."""
    n = len(data)
    if n == 0:
        return ClassStats(0, math.nan, math.nan)
    data *= scale
    mean = float(data.mean())
    if n >= N_BATCHES:
        per = n // N_BATCHES
        batches = data[: N_BATCHES * per].reshape(N_BATCHES, per).mean(axis=1)
        ci95 = float(_T975_31 * batches.std(ddof=1) / math.sqrt(N_BATCHES))
    else:
        ci95 = math.nan
    return ClassStats(n, mean, ci95)


def run(
    config: TrafficConfig,
    topology: Topology,
    horizon: int,
    warmup: int | None = None,
    seed: int = 0,
    *,
    mode: str = "aligned",
    keep_packets: bool = False,
    trace_path: str | None = None,
) -> SojournSummary:
    """Simulate until `horizon` packets have been served.

    Scheduling: at each slot boundary every idle server takes the head of the
    short queue, else the head of the long queue; never preempts; a packet
    arriving mid-slot waits at least for the next boundary. Simultaneous
    grabs go to the lower server index. Statistics cover departures after the
    first `warmup` (default: 10% of horizon). Identical (config, topology,
    seed) yields identical summaries. Traffic that is zero, or so sparse that
    time passes 2**53 slots before `horizon` starts, raises ValueError.

    `seed` is one integer; any other seed raises TypeError. Each class draws
    its arrivals (at the per-server rate) and service durations up front from
    its own streams of `SeedSequence(seed)`, or takes the previous run's
    draws by `_take_draws`'s rule, with the same results. The draws, the
    schedule and the trace come from one `_kernel()` call (see the module
    docstring): compiled on the first call in a process or, with one
    RuntimeWarning when no C compiler works, their bit-identical Python
    references.

    `mode="aligned"` is the model above. `mode="unaligned"` lets service
    start the moment a server and packet are both available;
    `mode="exponential"` also replaces the deterministic/table durations by
    exponentials with the same means. Those two exist for closed-form oracle
    checks only; any other mode raises ValueError.

    `keep_packets=True` returns every served packet, warmup included, as
    `summary.packets`, a `PacketColumns` record of read-only columns in start
    order, in real time, that the run never holds. `trace_path` writes the
    event CSV (`time,event,class,server,queue_len_short,queue_len_long`), one
    row per arrival, start and departure, each ending in CRLF.
    """
    if warmup is None:
        warmup = horizon // 10
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    if horizon <= warmup:
        raise ValueError("horizon must exceed warmup")
    if mode not in _MODES:
        raise ValueError(f"mode must be one of {', '.join(map(repr, _MODES))}, got {mode!r}")
    seed = operator.index(seed)
    aligned = mode == "aligned"
    n_servers = topology.n_servers
    slot = config.slot
    # work in slot units so aligned boundaries are exact integers; the loop
    # scales the per-server arrivals by 1/n_servers
    lam_s = config.lambda_short * slot
    lam_l = config.lambda_long * slot
    if lam_s + lam_l == 0.0:
        raise ValueError("no traffic: lambda_short and lambda_long are both 0, "
                         "so no packet is ever served")

    if mode == "exponential":
        e_long, _ = long_service_moments(config.channel, config.table)
        short_service = _exponential_services(1.0)
        long_service = _exponential_services(e_long / slot)
    else:
        short_service = _one_slot
        long_service = _TableTTIs(config.channel, config.table, slot, aligned)

    seqs_s, seqs_l = (seq.spawn(2) for seq in np.random.SeedSequence(seed).spawn(2))
    share_s = lam_s / (lam_s + lam_l)
    n_s, n_l = _initial_draws(horizon, share_s), _initial_draws(horizon, 1.0 - share_s)
    collect = keep_packets or bool(trace_path)
    kernel = _kernel()
    key = (seed, config, mode)
    draws = _take_draws(key)
    while True:
        short, long_ = draws or (
            _draw(seqs_s, lam_s, short_service, n_s, kernel.fill_draw),
            _draw(seqs_l, lam_l, long_service, n_l, kernel.fill_draw))
        out = _Schedule(n_servers, horizon, warmup, short, long_, collect)
        code = kernel.schedule(n_servers, aligned, horizon, warmup, short, long_, out)
        if code != _NEED_MORE:
            break
        # same streams: the longer draw extends the shorter, which is freed first
        n_s, n_l = 2 * max(n_s, short.limit), 2 * max(n_l, long_.limit)
        draws = short = long_ = out = None
    if code == _STALLED:
        raise ValueError("vanishing traffic: time passes 2**53 slots, where whole "
                         f"slots are no longer exact, before {horizon} packets are served")
    if code != _DONE:
        raise RuntimeError(
            "scheduler left a server idle while a packet waited (work conservation)"
        )
    _draw_slot[:] = [(key, (short, long_))]

    n_int, t_w, t_end = out.acc.tolist()
    n_short, n_long, k_s, k_l = out.cnt.tolist()
    # each boundary takes in every arrival up to itself, so the window's
    # arrivals are those after its opening boundary (per server: times
    # n_servers, exactly), up to its closing one
    opening = t_w * n_servers
    n_arr = (n_short + n_long - int(np.searchsorted(short.arrivals, opening, "right"))
             - int(np.searchsorted(long_.arrivals, opening, "right")))
    if trace_path:
        cls, _, duration, start, server = out.records
        kernel.write_trace(trace_path, short.arrivals[:n_short], long_.arrivals[:n_long],
                           (cls, duration, start, server), n_servers, slot)
    # after the trace's read of the records, which this scales
    packets = _packet_columns(out.records, out.departure, slot) if keep_packets else None

    span = t_end - t_w
    if span > 0:
        busy_fraction = tuple(b / span for b in out.busy.tolist())
        avg_in_system = n_int / span
        arrival_rate = n_arr / (span * slot)
        measurement_time = span * slot
    else:
        busy_fraction = (math.nan,) * n_servers
        avg_in_system = math.nan
        arrival_rate = math.nan
        measurement_time = 0.0

    short_stats = _class_stats(out.soj_s[:k_s], slot)
    long_stats = _class_stats(out.soj_l[:k_l], slot)
    converged = all(
        cs.count == 0 or (math.isfinite(cs.ci95) and cs.ci95 <= 0.1 * cs.mean)
        for cs in (short_stats, long_stats)
    )
    return SojournSummary(
        short=short_stats,
        long=long_stats,
        busy_fraction=busy_fraction,
        avg_in_system=avg_in_system,
        arrival_rate_estimate=arrival_rate,
        measurement_time=measurement_time,
        converged=converged,
        packets=packets,
    )


def _exponential_services(mean: float):
    def draw(rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.standard_exponential(n) * mean
    return draw


def _one_slot(rng: np.random.Generator, n: int) -> float:
    """Every short's service: one slot, drawing nothing."""
    return 1.0


@dataclass(frozen=True)
class _TableTTIs:
    """Long TTIs in slots: each packet's Rayleigh SNR picks its region's TTI
    (`traffic.sample_long_services`), divided by the slot and, when starts
    are slot aligned, rounded to whole slots. The compiled draw looks the
    regions up itself, from `in_slots` of the table's TTIs."""

    channel: ChannelModel
    table: RateAdaptationTable
    slot: float
    aligned: bool

    def in_slots(self, tti: np.ndarray) -> np.ndarray:
        tti /= self.slot
        return np.rint(tti, out=tti) if self.aligned else tti

    def __call__(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.in_slots(sample_long_services(self.channel, self.table, rng, n))


def _initial_draws(horizon: int, share: float) -> int:
    """Arrivals drawn up front for a class with this share of the traffic.

    Enough that a run almost never needs more; when it does, run() doubles
    the draw and schedules again, with identical results.
    """
    return int(horizon * share * 1.05) + 1024


@dataclass(frozen=True)
class _ClassDraws:
    """One packet class's arrival times and service durations, in slot units.

    Both arrays end in a +inf sentinel. `limit` counts the real arrivals, or
    is -1 for a class that never arrives.
    """

    arrivals: np.ndarray
    services: np.ndarray
    limit: int


def _draw(seqs, lam: float, service, n: int, fill: Callable[..., None]) -> _ClassDraws:
    """`n` arrivals at rate `lam` with durations from `service(rng, n)` (n
    of them, or one for all), as `fill`, a kernel's `fill_draw`, writes
    them.

    Gaps and durations come from fresh generators on the two seed sequences
    `seqs`, so a larger `n` extends a smaller one's arrays unchanged. Both
    arrays are the rows of one new block, read-only once written.
    """
    gaps, durations = (np.random.default_rng(s) for s in seqs)
    limit = n if lam > 0 else -1
    arrivals, services = block = np.empty((2, max(limit, 0) + 1))
    arrivals[-1] = services[-1] = math.inf
    fill(gaps, durations, lam, service, arrivals[:-1], services[:-1])
    for array in (arrivals, services, block):
        array.setflags(write=False)
    return _ClassDraws(arrivals, services, limit)


def _fill_draw(gaps: np.random.Generator, durations: np.random.Generator, lam: float,
               service, arrivals: np.ndarray, services: np.ndarray) -> None:
    """Write a class's arrival times at rate `lam` into `arrivals`, from unit
    exponential gaps, and its service durations `service(rng, n)` into
    `services`, from the two generators: the compiled `fill_draw`'s fills,
    finished by numpy where `_schedule.c` finishes them. Its reference, and
    run()'s draw when no compiler works.
    """
    gaps.standard_exponential(out=arrivals)
    # a vanishing rate overflows to +inf gaps: that class never arrives
    with np.errstate(over="ignore"):
        arrivals /= lam
        np.cumsum(arrivals, out=arrivals)
    services[:] = service(durations, len(services))


# at most one (key, (short, long) draws); taking and filling it are each one
# list operation, atomic, so threads racing for it cost at most one extra draw
_draw_slot: list[tuple] = []


def _take_draws(key: tuple):
    """The hand-off rule: empty the slot; return the draws it held if `key`,
    a run's (seed, config, mode), made them, whatever their size, else None.
    Draws of one key differ only in length, each a prefix of any longer one
    (`_draw`); a pass reads no arrival past the first it has not taken in,
    and one that runs out draws again at twice the size, so every size
    gives the same results."""
    try:
        held_key, draws = _draw_slot.pop()
    except IndexError:
        return None
    return draws if held_key == key else None


class _Schedule:
    """Output buffers of one scheduling pass; `_schedule.c` documents them.

    Each is sized for the most the loop can write into it: a class's
    sojourns are bounded by its draws and by the window, records by the
    horizon. The two classes' sojourns are the two parts of one new block.
    A collecting pass carves its five record columns and the packets'
    departure column from another, 41 bytes per start with every column
    aligned. Each block goes back to the allocator whole, which hands it to
    the next run without fresh pages.
    """

    def __init__(self, n_servers: int, horizon: int, warmup: int,
                 short: _ClassDraws, long_: _ClassDraws, collect: bool):
        window = horizon - warmup
        self.busy = np.zeros(n_servers)
        n_s, n_l = (min(max(d.limit, 0), window) for d in (short, long_))
        sojourns = np.empty(n_s + n_l)
        self.soj_s, self.soj_l = sojourns[:n_s], sojourns[n_s:]
        self.acc = np.zeros(3)
        self.cnt = np.zeros(4, dtype=np.int64)
        # per start: class (0 short, 1 long), arrival, duration, start, server
        self.records = self.departure = None
        if collect:
            # the 8-byte columns first, so each starts aligned; the class last
            block = np.empty(41 * horizon, np.uint8)
            arrival, duration, start, self.departure = (
                block[:32 * horizon].view(np.float64).reshape(4, horizon))
            server = block[32 * horizon:40 * horizon].view(np.int64)
            self.records = (block[40 * horizon:], arrival, duration, start, server)


_DONE, _NEED_MORE, _BREACH, _STALLED = 0, 1, 2, 3  # scheduler return codes, as in _schedule.c
_EXACT_SLOTS = 2.0**53  # above it a double no longer holds every whole number of slots
_SOURCE = Path(__file__).with_name("_schedule.c")
_CC = "cc"


class _Kernel(NamedTuple):
    """The draw filler, scheduling loop and trace writer run() uses:
    `_schedule.c` compiled, or its Python twins `_fill_draw`, `_schedule_py`
    and `_write_trace`."""

    schedule: Callable[..., int]  # as _schedule_py
    write_trace: Callable[..., None]  # as _write_trace
    fill_draw: Callable[..., None]  # as _fill_draw


_KERNEL_LOCK = threading.Lock()


def _kernel() -> _Kernel:
    """`_schedule.c` compiled once per process into a private temporary
    directory, or, with one RuntimeWarning when no C compiler works, the
    Python twins.

    The lock is held across the build: `functools.cache` alone calls the
    builder again when first calls race, which would run `cc` twice.
    """
    with _KERNEL_LOCK:
        return _build_kernel()


@functools.cache
def _build_kernel() -> _Kernel:
    try:
        with tempfile.TemporaryDirectory(prefix="tddq-") as tmp:
            lib_path = os.path.join(tmp, "_schedule.so")
            subprocess.run(
                [_CC, "-O2", "-ffp-contract=off", "-shared", "-fPIC",
                 "-o", lib_path, str(_SOURCE), "-lm"],
                check=True, capture_output=True, timeout=120,
            )
            lib = ctypes.CDLL(lib_path)  # stays mapped after the file is removed
    except (OSError, subprocess.SubprocessError) as exc:
        warnings.warn(
            f"cannot build the C kernel ({exc}); using the slower Python reference "
            "draw, loop and trace writer",
            RuntimeWarning, stacklevel=4,  # the caller of run()
        )
        return _Kernel(_schedule_py, _write_trace, _fill_draw)
    i64, ptr = ctypes.c_longlong, ctypes.c_void_p
    schedule_fn = lib.tddq_schedule
    schedule_fn.argtypes = [i64, ctypes.c_int, i64, i64, ptr, ptr, i64, ptr, ptr, i64,
                            ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr]
    schedule_fn.restype = ctypes.c_int
    merge_fn = lib.tddq_trace_merge
    merge_fn.argtypes = [i64, ctypes.c_double, ptr, i64, ptr, i64, ptr, ptr, ptr, ptr, i64,
                         i64, ptr, ptr]
    merge_fn.restype = i64
    arrivals_fn = lib.tddq_arrival_times
    arrivals_fn.argtypes = [ptr, i64, ctypes.c_double]
    arrivals_fn.restype = None
    ttis_fn = lib.tddq_long_ttis
    ttis_fn.argtypes = [ptr, i64, ctypes.c_double, ptr, i64, ptr]
    ttis_fn.restype = None
    # the merge's table of row tails, filled here under _KERNEL_LOCK: never
    # from a merge, which runs without the GIL
    init_fn = lib.tddq_trace_init
    init_fn.argtypes = []
    init_fn.restype = None
    init_fn()

    # arrays go in as their data addresses, plain ints (None passes NULL):
    # passing an array's `.ctypes` makes objects in a reference cycle, which
    # would pile up over the calls
    def schedule(n_servers: int, aligned: bool, horizon: int, warmup: int,
                 short: _ClassDraws, long_: _ClassDraws, out: _Schedule) -> int:
        records = [r.ctypes.data for r in out.records] if out.records else [None] * 5
        return schedule_fn(n_servers, aligned, horizon, warmup,
                           short.arrivals.ctypes.data, short.services.ctypes.data, short.limit,
                           long_.arrivals.ctypes.data, long_.services.ctypes.data, long_.limit,
                           out.busy.ctypes.data, out.soj_s.ctypes.data, out.soj_l.ctypes.data,
                           out.acc.ctypes.data, out.cnt.ctypes.data, *records)

    def write_trace(path: str, short_arrivals: np.ndarray, long_arrivals: np.ndarray,
                    records: tuple, n_servers: int, scale: float) -> None:
        arr_s, arr_l = (np.ascontiguousarray(a, np.float64) for a in (short_arrivals,
                                                                      long_arrivals))
        cls, duration, start, server = (np.ascontiguousarray(a, dtype) for a, dtype in
                                        zip(records, (np.uint8, np.float64, np.float64,
                                                      np.int64)))
        n_rec = len(start)
        if not len(cls) == len(duration) == n_rec == len(server):
            raise ValueError("trace record arrays differ in length")
        # queue counts, rows, last time, a cursor per stream: `_schedule.c` has it
        state = np.zeros(7 + n_servers, np.int64)
        buf = np.empty(_CHUNK * _ROW_BYTES, np.uint8)
        p_s, p_l, p_cls, p_dur, p_start, p_srv, p_state, p_buf = (
            a.ctypes.data for a in (arr_s, arr_l, cls, duration, start, server, state, buf))
        with open(path, "wb") as fh:
            fh.write(_TRACE_HEADER.encode())
            while size := merge_fn(n_servers, scale, p_s, len(arr_s), p_l, len(arr_l), p_cls,
                                   p_dur, p_start, p_srv, n_rec, _CHUNK, p_state, p_buf):
                if size < 0:
                    raise ValueError("trace record class above 1, server out of range, "
                                     "or a stream out of time order")
                fh.write(buf[:size])

    def fill_draw(gaps: np.random.Generator, durations: np.random.Generator, lam: float,
                  service, arrivals: np.ndarray, services: np.ndarray) -> None:
        # one fill per stream, then the finisher in place; `out=` takes only
        # C-contiguous float64, so it checks each array before C gets it
        gaps.standard_exponential(out=arrivals)
        arrivals_fn(arrivals.ctypes.data, len(arrivals), lam)
        if isinstance(service, _TableTTIs):
            durations.standard_exponential(out=services)
            inner = np.array(service.table.thresholds[1:-1])
            slots = service.in_slots(np.array(service.table.durations))
            ttis_fn(services.ctypes.data, len(services), service.channel.mean_snr,
                    inner.ctypes.data, len(inner), slots.ctypes.data)
        else:
            services[:] = service(durations, len(services))

    return _Kernel(schedule, write_trace, fill_draw)


def _schedule_py(n_servers: int, aligned: bool, horizon: int, warmup: int,
                 short: _ClassDraws, long_: _ClassDraws, out: _Schedule) -> int:
    """Reference for `_schedule.c`: the same operations in the same order."""
    per_server = 1.0 / n_servers  # arrivals are drawn per server
    arr_s, arr_l = ((d.arrivals * per_server).tolist() for d in (short, long_))
    dur_s, dur_l = short.services.tolist(), long_.services.tolist()
    lim_s, lim_l = short.limit, long_.limit
    collect = out.records is not None
    ceil, inf, exact_slots = math.ceil, math.inf, _EXACT_SLOTS
    free = [0.0] * n_servers
    busy = [0.0] * n_servers
    soj_s: list[float] = []
    soj_l: list[float] = []
    records: list[tuple] = []
    ns = nl = hs = hl = started = 0
    n_int = t_w = t = 0.0
    warm = False

    while started < horizon:
        begun = started
        t = min(free)
        if hs == ns and hl == nl:
            a = arr_s[ns] if arr_s[ns] < arr_l[nl] else arr_l[nl]
            avail = float(ceil(a)) if aligned and a < inf else a
            if not avail <= t:  # a NaN arrival makes t NaN, which stalls below
                t = avail
        if not t < exact_slots:
            return _STALLED
        while arr_s[ns] <= t:
            ns += 1
        while arr_l[nl] <= t:
            nl += 1
        if ns == lim_s or nl == lim_l:
            return _NEED_MORE

        for j in range(n_servers):
            if free[j] > t:
                continue
            if hs < ns:
                cls, arr, dur = 0, arr_s[hs], dur_s[hs]
                hs += 1
            elif hl < nl:
                cls, arr, dur = 1, arr_l[hl], dur_l[hl]
                hl += 1
            else:
                break
            if started == warmup:
                t_w = t
                warm = True
                for j2 in range(n_servers):
                    over = free[j2] - t_w
                    if over > 0:
                        busy[j2] += over
                        n_int += over
            dep = t + dur
            free[j] = dep
            if warm:
                busy[j] += dur
                n_int += dep - (arr if arr > t_w else t_w)
                (soj_l if cls else soj_s).append(dep - arr)
            if collect:
                records.append((cls, arr, dur, t, j))
            started += 1
            if started == horizon:
                break

        # a server still free took a zero-length service: run the boundary again
        if started < horizon and (hs < ns or hl < nl) and started == begun and min(free) <= t:
            return _BREACH

    for j in range(n_servers):
        over = free[j] - t
        if over > 0:
            busy[j] -= over
            n_int -= over
    for i in range(hs, ns):
        n_int += t - (arr_s[i] if arr_s[i] > t_w else t_w)
    for i in range(hl, nl):
        n_int += t - (arr_l[i] if arr_l[i] > t_w else t_w)

    out.busy[:] = busy
    out.soj_s[: len(soj_s)] = soj_s
    out.soj_l[: len(soj_l)] = soj_l
    out.acc[:] = (n_int, t_w, t)
    out.cnt[:] = (ns, nl, len(soj_s), len(soj_l))
    if collect:
        for column, values in zip(out.records, zip(*records)):
            column[:] = values
    return _DONE


# trace ranks, the order of simultaneous events: a packet that starts as it
# arrives is counted in before it is taken out
_DEPART, _ARRIVAL, _START = 0, 1, 2
_EVENT_NAMES = ("depart", "arrival", "start")
_TRACE_HEADER = "time,event,class,server,queue_len_short,queue_len_long\r\n"
_TRACE_ROW = "%.9g,%s,%d,%d\r\n"
_ROW_BYTES = 95  # the longest row `_schedule.c` writes, as TDDQ_ROW_BYTES there


def _packet_columns(records: tuple, departure: np.ndarray, scale: float) -> PacketColumns:
    """A run's packets from its records, in slot units, which are scaled in
    place into real time: the records and `departure`, which gets start plus
    duration, become the packets' columns, so nothing may read them as slots
    after this."""
    cls, arrival, duration, start, server = records
    np.add(start, duration, out=departure)
    for column in (arrival, duration, start, departure):
        column *= scale
    return PacketColumns(cls, arrival, duration, start, departure, server)


def _write_trace(path: str, short_arrivals: np.ndarray, long_arrivals: np.ndarray,
                 records: tuple, n_servers: int, scale: float) -> None:
    """Replay a run's events into the debug CSV (queue = arrived, unstarted).

    The inputs are what run() keeps: each class's arrivals in slots, per
    server as drawn, and one record per start (class 0 short / 1 long,
    duration, start, server) in start order. Rows come out by time, then
    rank (depart, arrival, start), and otherwise in the order the schedule
    made the events: arrivals, short before long, then starts and departures
    in start order. Times keep 9 significant digits (`%.9g`) and rows end in
    CRLF, as `csv.writer` wrote them.

    The reference for `_schedule.c`'s merge, which gives the same bytes
    without the events: this builds every event, orders them with one
    `np.lexsort`, counts the queues with cumulative sums and formats each
    chunk from one row template. run() uses it when no compiler works.
    """
    cls, duration, start, server = records
    n_short, n_long, n_starts = len(short_arrivals), len(long_arrivals), len(start)
    n_arr = n_short + n_long
    # every event in the order made, the arrivals scaled as the loop reads them
    time = np.concatenate((short_arrivals, long_arrivals, start, start + duration))
    time[:n_arr] *= 1.0 / n_servers
    rank = np.concatenate((np.full(n_arr, _ARRIVAL, np.uint8),
                           np.full(n_starts, _START, np.uint8),
                           np.full(n_starts, _DEPART, np.uint8)))
    cls = np.concatenate((np.zeros(n_short, np.uint8), np.ones(n_long, np.uint8), cls, cls))
    server = np.concatenate((np.full(n_arr, -1), server, server))
    # a stable sort, so the order made settles ties of time and rank
    order = np.lexsort((rank, time))
    time, rank, cls, server = time[order], rank[order], cls[order], server[order]
    # queue lengths after each row: +1 on arrival, -1 on start
    step = (rank == _ARRIVAL).astype(np.int64) - (rank == _START)
    q_short = np.cumsum(np.where(cls == 0, step, 0))
    q_long = np.cumsum(np.where(cls == 1, step, 0))
    # one "event,class,server" string per (rank, class, server or -1)
    width = int(server.max()) + 2 if len(server) else 1
    labels = np.array([f"{_EVENT_NAMES[r]},{_KINDS[c]},{j if j >= 0 else ''}"
                       for r in range(3) for c in range(2) for j in range(-1, width - 1)],
                      dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(_TRACE_HEADER)
        for lo in range(0, len(time), _CHUNK):
            part = slice(lo, lo + _CHUNK)
            key = (rank[part].astype(np.int64) * 2 + cls[part]) * width + server[part] + 1
            fields = zip((time[part] * scale).tolist(), labels[key].tolist(),
                         q_short[part].tolist(), q_long[part].tolist())
            # one % formats the whole chunk: a template per row, joined
            fh.write((_TRACE_ROW * len(key)) % tuple(itertools.chain.from_iterable(fields)))


@dataclass(frozen=True)
class SweepPoint:
    rho: float
    summary: SojournSummary | None
    error: str | None


def sweep(
    scenario: Scenario,
    topology: Topology,
    rho_list,
    horizon: int,
    warmup: int | None = None,
    seed_base: int = 0,
) -> list[SweepPoint]:
    """Independent runs over utilization points.

    Arrival rates per point come from the scenario's mix ratio; point i uses
    seed seed_base + i. Per-point failures are recorded, not raised, so the
    remaining points still run.
    """
    points: list[SweepPoint] = []
    for i, rho in enumerate(rho_list):
        try:
            config = scenario.config_for(rho)
            summary = run(config, topology, horizon, warmup, seed=seed_base + i)
            points.append(SweepPoint(rho, summary, None))
        except ValueError as exc:
            points.append(SweepPoint(rho, None, str(exc)))
    return points
