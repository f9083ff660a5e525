"""Event-driven simulator of the coupled (1 server) and decoupled (2 server)
slotted priority queue.

Both packet classes arrive Poisson; short packets have strict non-preemptive
priority, FIFO within class. Service only starts on slot boundaries (slot =
short TTI) and every service duration is a whole number of slots, so the
scheduler can run boundary-to-boundary instead of slot-by-slot: each loop
iteration starts exactly one service. Long packets draw their SNR (hence TTI)
once, on arrival. The decoupled topology doubles both arrival rates and lets
two servers share the same two queues, keeping per-server utilization equal
to the coupled baseline.
"""

from __future__ import annotations

import csv
import math
from array import array
from bisect import bisect_left as _bisect_left
from collections import deque
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.stats import t as _student_t

from .traffic import (
    Scenario,
    SaturationError,
    TrafficConfig,
    long_service_moments,
    utilization,
)

__all__ = [
    "Topology",
    "Packet",
    "ClassStats",
    "SojournSummary",
    "SweepPoint",
    "run",
    "sweep",
]

N_BATCHES = 32
_T975_31 = float(_student_t.ppf(0.975, N_BATCHES - 1))
_RNG_BLOCK = 8192


class Topology(Enum):
    COUPLED = "coupled"
    DECOUPLED = "decoupled"

    @property
    def n_servers(self) -> int:
        return 1 if self is Topology.COUPLED else 2

    @property
    def rate_factor(self) -> float:
        # traffic is doubled in the decoupled comparison so per-server load matches
        return float(self.n_servers)


@dataclass(frozen=True)
class Packet:
    """One simulated packet (materialized only when requested)."""

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


@dataclass(frozen=True)
class ClassStats:
    count: int
    mean: float
    variance: float
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
    warmup_discarded: int
    seed: int
    converged: bool
    packets: tuple[Packet, ...] | None = None

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


class _Uniforms:
    """Blocked uniform(0,1) draws from one seeded generator."""

    __slots__ = ("_rng", "_buf", "_i")

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        self._buf = rng.random(_RNG_BLOCK).tolist()
        self._i = 0

    def next(self) -> float:
        i = self._i
        if i == _RNG_BLOCK:
            self._buf = self._rng.random(_RNG_BLOCK).tolist()
            i = 0
        self._i = i + 1
        return self._buf[i]


def _class_stats(samples: array, scale: float) -> ClassStats:
    n = len(samples)
    if n == 0:
        return ClassStats(0, math.nan, math.nan, math.nan)
    data = np.frombuffer(samples, dtype=np.float64) * scale
    mean = float(data.mean())
    variance = float(data.var(ddof=1)) if n >= 2 else math.nan
    if n >= N_BATCHES:
        per = n // N_BATCHES
        batches = data[: N_BATCHES * per].reshape(N_BATCHES, per).mean(axis=1)
        ci95 = float(_T975_31 * batches.std(ddof=1) / math.sqrt(N_BATCHES))
    else:
        ci95 = math.nan
    return ClassStats(n, mean, variance, ci95)


def _empty_summary(n_servers: int, warmup: int, seed: int, keep_packets: bool) -> SojournSummary:
    empty = ClassStats(0, math.nan, math.nan, math.nan)
    return SojournSummary(
        short=empty,
        long=empty,
        busy_fraction=(0.0,) * n_servers,
        avg_in_system=0.0,
        arrival_rate_estimate=0.0,
        measurement_time=0.0,
        warmup_discarded=warmup,
        seed=seed,
        converged=True,
        packets=() if keep_packets else None,
    )


def run(
    config: TrafficConfig,
    topology: Topology,
    horizon: int,
    warmup: int | None = None,
    seed: int = 0,
    *,
    slot_aligned: bool = True,
    exponential_service: bool = False,
    keep_packets: bool = False,
    trace_path: str | None = None,
) -> SojournSummary:
    """Simulate until `horizon` packets have been served.

    Scheduling: at each slot boundary every idle server takes the head of the
    short queue, else the head of the long queue; never preempts; a packet
    arriving mid-slot waits at least for the next boundary. Simultaneous
    grabs go to the lower server index. Statistics cover departures after the
    first `warmup` (default: 10% of horizon). Identical (config, topology,
    seed) yields identical summaries.

    `slot_aligned=False` lets service start the moment a server and packet are
    both available; `exponential_service=True` additionally replaces the
    deterministic/table durations by exponentials with the same means. Both
    exist for closed-form oracle checks only.
    """
    if warmup is None:
        warmup = horizon // 10
    if warmup < 0:
        raise ValueError("warmup must be >= 0")
    if exponential_service and slot_aligned:
        raise ValueError("exponential service breaks slot alignment; pass slot_aligned=False")
    utilization(config)  # saturation rejected up front
    n_servers = topology.n_servers
    factor = topology.rate_factor
    slot = config.slot
    # work in slot units so aligned boundaries are exact integers
    lam_s = config.lambda_short * factor * slot
    lam_l = config.lambda_long * factor * slot
    if lam_s + lam_l == 0.0:
        if trace_path:
            _write_trace(trace_path, [], slot)
        return _empty_summary(n_servers, warmup, seed, keep_packets)
    if horizon <= warmup:
        raise ValueError("horizon must exceed warmup")

    e_long, _ = long_service_moments(config.channel, config.table)
    if slot_aligned:
        durations = tuple(int(round(d / slot)) for d in config.table.durations)
        short_dur = 1
    else:
        durations = tuple(d / slot for d in config.table.durations)
        short_dur = 1.0
    exp_long_mean = e_long / slot

    trace = [] if trace_path else None
    packets = [] if keep_packets else None

    summary = _simulate(
        lam_s=lam_s,
        lam_l=lam_l,
        mean_snr=config.channel.mean_snr,
        inner_thresholds=config.table.inner_thresholds,
        durations=durations,
        short_dur=short_dur,
        exp_long_mean=exp_long_mean,
        horizon=horizon,
        warmup=warmup,
        n_servers=n_servers,
        aligned=slot_aligned,
        exp_service=exponential_service,
        seed=seed,
        scale=slot,
        trace=trace,
        packets=packets,
    )
    if trace_path:
        _write_trace(trace_path, trace, slot)
    return summary


def _simulate(
    *,
    lam_s: float,
    lam_l: float,
    mean_snr: float,
    inner_thresholds: tuple[float, ...],
    durations: tuple,
    short_dur,
    exp_long_mean: float,
    horizon: int,
    warmup: int,
    n_servers: int,
    aligned: bool,
    exp_service: bool,
    seed: int,
    scale: float,
    trace: list | None,
    packets: list | None,
) -> SojournSummary:
    rng = np.random.default_rng(seed)
    uni = _Uniforms(rng)
    u = uni.next
    log1p = math.log1p
    ceil = math.ceil
    bisect_left = _bisect_left

    inf = math.inf
    next_s = -log1p(-u()) / lam_s if lam_s > 0 else inf
    next_l = -log1p(-u()) / lam_l if lam_l > 0 else inf

    q_s: deque = deque()
    q_l: deque = deque()
    free = [0] * n_servers if aligned else [0.0] * n_servers

    soj_s = array("d")
    soj_l = array("d")
    prewarm_deps = array("d")
    busy = [0.0] * n_servers
    n_int = 0.0  # integral of N(t) over the window, slot units
    n_arr = 0  # arrivals inside the window
    t_w = 0.0
    warm = False
    started = 0
    t = 0

    collect = trace is not None or packets is not None
    n_regions = len(durations)

    while started < horizon:
        # decision boundary: earliest free server, pushed out to the next
        # packet availability when nothing is waiting
        t = free[0]
        for j in range(1, n_servers):
            if free[j] < t:
                t = free[j]
        if not q_s and not q_l:
            a = next_s if next_s < next_l else next_l
            avail = ceil(a) if aligned else a
            if avail > t:
                t = avail

        while next_s <= t:
            if exp_service:
                dur = -log1p(-u())
            else:
                dur = short_dur
            q_s.append((next_s, dur))
            if warm:
                n_arr += 1
            if trace is not None:
                trace.append((next_s, 2, "short", -1))
            next_s += -log1p(-u()) / lam_s
        while next_l <= t:
            if exp_service:
                dur = -log1p(-u()) * exp_long_mean
            elif n_regions == 1:
                dur = durations[0]
            else:
                snr = -mean_snr * log1p(-u())
                dur = durations[bisect_left(inner_thresholds, snr)]
            q_l.append((next_l, dur))
            if warm:
                n_arr += 1
            if trace is not None:
                trace.append((next_l, 2, "long", -1))
            next_l += -log1p(-u()) / lam_l

        for j in range(n_servers):
            if free[j] > t:
                continue
            if q_s:
                arr, dur = q_s.popleft()
                is_short = True
            elif q_l:
                arr, dur = q_l.popleft()
                is_short = False
            else:
                break
            if started == warmup:
                # window opens at this start; credit in-flight remainders
                t_w = t
                warm = True
                for j2 in range(n_servers):
                    over = free[j2] - t_w
                    if over > 0:
                        busy[j2] += over
                for d in prewarm_deps:
                    if d > t_w:
                        n_int += d - t_w
                prewarm_deps = array("d")
            dep = t + dur
            free[j] = dep
            if warm:
                busy[j] += dur
                n_int += dep - (arr if arr > t_w else t_w)
                if is_short:
                    soj_s.append(dep - arr)
                else:
                    soj_l.append(dep - arr)
            else:
                prewarm_deps.append(dep)
            if collect:
                kind = "short" if is_short else "long"
                if trace is not None:
                    trace.append((t, 1, kind, j))
                    trace.append((dep, 0, kind, j))
                if packets is not None:
                    packets.append(Packet(kind, arr * scale, dur * scale,
                                          t * scale, dep * scale, j))
            started += 1
            if started == horizon:
                break

        # work conservation: a boundary never leaves a free server and a
        # waiting packet behind
        assert not ((q_s or q_l) and any(f <= t for f in free)) or started == horizon

    # close the window at the last start
    t_end = t
    for j in range(n_servers):
        over = free[j] - t_end
        if over > 0:
            busy[j] -= over
            n_int -= over
    for arr, _dur in q_s:
        n_int += t_end - (arr if arr > t_w else t_w)
    for arr, _dur in q_l:
        n_int += t_end - (arr if arr > t_w else t_w)

    span = t_end - t_w
    if span > 0:
        busy_fraction = tuple(b / span for b in busy)
        avg_in_system = n_int / span
        arrival_rate = n_arr / (span * scale)
        measurement_time = span * scale
    else:
        busy_fraction = (math.nan,) * n_servers
        avg_in_system = math.nan
        arrival_rate = math.nan
        measurement_time = 0.0

    short_stats = _class_stats(soj_s, scale)
    long_stats = _class_stats(soj_l, scale)
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
        warmup_discarded=warmup,
        seed=seed,
        converged=converged,
        packets=tuple(packets) if packets is not None else None,
    )


def _write_trace(path: str, events: list, scale: float) -> None:
    """Replay collected events into the debug CSV (queue = arrived, unstarted)."""
    names = {0: "depart", 1: "start", 2: "arrival"}
    q = {"short": 0, "long": 0}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "event", "class", "server", "queue_len_short", "queue_len_long"])
        for time, rank, kind, server in sorted(events, key=lambda e: (e[0], e[1])):
            if rank == 2:
                q[kind] += 1
            elif rank == 1:
                q[kind] -= 1
            w.writerow([
                format(time * scale, ".9g"), names[rank], kind,
                server if server >= 0 else "",
                q["short"], q["long"],
            ])


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
    **run_kwargs,
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
            summary = run(config, topology, horizon, warmup, seed=seed_base + i, **run_kwargs)
            points.append(SweepPoint(rho, summary, None))
        except (SaturationError, ValueError) as exc:
            points.append(SweepPoint(rho, None, str(exc)))
    return points
