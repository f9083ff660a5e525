"""Simulator unit tests: closed-form oracles, scheduling invariants,
conservation diagnostics, determinism, sweep behaviour, the trace dump, the
compiled scheduling loop against its Python reference, and draws handed
from one run to the next.

Heavier statistical checks (10^6-departure runs at the stated tolerances)
live in test_acceptance.py; runs here are sized for speed with tolerances
that the fixed seeds meet with margin.
"""

import csv
import gc
import hashlib
import heapq
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tddq import (
    ChannelModel,
    Packet,
    RateAdaptationTable,
    Scenario,
    Topology,
    TrafficConfig,
    default_scenario,
    mg1_priority_sojourn_slotted,
    run,
    sweep,
)
from tddq import sim

SINGLE_RATE = RateAdaptationTable(thresholds=(0.0, math.inf), rates=(1.0,))
MM1_CONFIG = TrafficConfig(0.5, 0.0, 1.0, ChannelModel(1.0), SINGLE_RATE)


def fig3_config(rho):
    return default_scenario().config_for(rho)


class TestClosedFormOracles:
    def test_mm1_sanity_mode(self):
        # oracle: M/M/1 mean sojourn 1/(mu - lam) = 2.0
        s = run(MM1_CONFIG, Topology.COUPLED, 220_000, 20_000, seed=17, mode="exponential")
        assert s.short.mean == pytest.approx(2.0, rel=0.02)

    def test_md1_unslotted(self):
        # oracle: M/D/1 sojourn = rho/(2 mu (1-rho)) + 1/mu = 1.5
        s = run(MM1_CONFIG, Topology.COUPLED, 220_000, 20_000, seed=17, mode="unaligned")
        assert s.short.mean == pytest.approx(1.5, rel=0.02)

    def test_md1_slotted_discrete_start(self):
        # oracle: slotted single-class unit service = P-K + half slot = 2.0
        s = run(MM1_CONFIG, Topology.COUPLED, 220_000, 20_000, seed=17)
        assert s.short.mean == pytest.approx(2.0, rel=0.02)

    def test_two_class_slotted_matches_boundary_exact_form(self):
        config = fig3_config(0.5)
        predicted = mg1_priority_sojourn_slotted(config)
        s = run(config, Topology.COUPLED, 440_000, 40_000, seed=11)
        assert s.short.mean == pytest.approx(predicted.mean_short, rel=0.01)
        assert s.long.mean == pytest.approx(predicted.mean_long, rel=0.01)


class TestEmptyAndErrors:
    def test_zero_traffic_rejected(self, tmp_path):
        config = TrafficConfig(0.0, 0.0, 1.0, ChannelModel(1.0), SINGLE_RATE)
        trace = tmp_path / "trace.csv"
        with pytest.raises(ValueError, match="no traffic"):
            run(config, Topology.COUPLED, 1000, seed=1, keep_packets=True,
                trace_path=str(trace))
        assert not trace.exists()

    def test_horizon_must_exceed_warmup(self):
        with pytest.raises(ValueError):
            run(MM1_CONFIG, Topology.COUPLED, 100, warmup=100, seed=1)
        with pytest.raises(ValueError, match="warmup must be >= 0"):
            run(MM1_CONFIG, Topology.COUPLED, 100, warmup=-1, seed=1)

    @pytest.mark.parametrize("horizon, warmup", [(100, 100), (0, None)],
                             ids=["warmup-equals-horizon", "zero-horizon"])
    def test_horizon_must_exceed_warmup_without_traffic(self, horizon, warmup):
        config = TrafficConfig(0.0, 0.0, 1.0, ChannelModel(1.0), SINGLE_RATE)
        with pytest.raises(ValueError, match="horizon must exceed warmup"):
            run(config, Topology.COUPLED, horizon, warmup=warmup, seed=1)

    def test_empty_window_gives_nan_diagnostics(self):
        # both servers start the window's only packet and the one before it
        # at the same boundary, so the measurement window has no length
        s = run(fig3_config(0.5), Topology.DECOUPLED, horizon=2, warmup=1, seed=0)
        assert s.measurement_time == 0.0
        assert math.isnan(s.little_residual)
        assert all(math.isnan(b) for b in s.busy_fraction)

    def test_window_without_arrivals_gives_nan_little_residual(self):
        # the window's two departures arrived before it opened: L*T > 0 but
        # lambda*W is 0, so the relative residual has no denominator
        s = run(fig3_config(0.9), Topology.COUPLED, horizon=3, warmup=1, seed=5)
        assert s.measurement_time > 0
        assert s.arrival_rate_estimate == 0.0
        assert math.isnan(s.little_residual)

    @pytest.mark.parametrize("mode", ["slotted", "Aligned", None])
    def test_unknown_mode_raises_before_drawing(self, monkeypatch, mode):
        drawn = []
        monkeypatch.setattr(sim, "_draw", lambda *args: drawn.append(args))
        with pytest.raises(ValueError, match="mode must be one of") as exc:
            run(MM1_CONFIG, Topology.COUPLED, 100, seed=1, mode=mode)
        assert all(repr(m) in str(exc.value) for m in ("aligned", "unaligned", "exponential"))
        assert drawn == []


@pytest.fixture(scope="module")
def packets_coupled():
    return run(fig3_config(0.6), Topology.COUPLED, 30_000, 1_000, seed=21,
               keep_packets=True).packets


@pytest.fixture(scope="module")
def packets_decoupled():
    return run(fig3_config(0.6), Topology.DECOUPLED, 30_000, 1_000, seed=22,
               keep_packets=True).packets


class TestSchedulingInvariants:
    def test_slot_aligned_starts(self, packets_coupled):
        start = packets_coupled.start_time  # slot length 1
        np.testing.assert_allclose(start, np.round(start), rtol=0, atol=1e-9)
        assert np.all(start >= packets_coupled.arrival_time)

    def test_departure_equals_start_plus_service(self, packets_coupled):
        p = packets_coupled
        np.testing.assert_allclose(p.departure_time, p.start_time + p.service_duration,
                                   rtol=0, atol=1e-9)

    def test_service_durations_from_table(self, packets_coupled):
        is_short = packets_coupled.class_code == 0
        durations = packets_coupled.service_duration
        assert np.all(durations[is_short] == 1.0)
        assert np.all(np.isin(durations[~is_short], (15.0, 10.0, 2.0)))

    @pytest.mark.parametrize("fixture", ["packets_coupled", "packets_decoupled"])
    def test_fifo_start_order_within_class(self, fixture, request):
        packets = request.getfixturevalue(fixture)
        for code in (0, 1):
            arrivals = packets.arrival_time[packets.class_code == code]
            assert np.all(np.diff(arrivals) >= 0)  # packets come out in start order

    def test_fifo_departure_order_same_server(self, packets_decoupled):
        p = packets_decoupled
        for server in (0, 1):
            for code in (0, 1):
                deps = p.departure_time[(p.class_code == code) & (p.server == server)]
                assert len(deps) and np.all(np.diff(deps) >= 0)

    @pytest.mark.parametrize("fixture", ["packets_coupled", "packets_decoupled"])
    def test_strict_priority_no_long_start_while_short_waits(self, fixture, request):
        packets = request.getfixturevalue(fixture)
        is_short = packets.class_code == 0
        long_starts = packets.start_time[~is_short]  # in start order, so sorted
        # long starts inside each short packet's wait [arrival, start)
        inside = (np.searchsorted(long_starts, packets.start_time[is_short])
                  - np.searchsorted(long_starts, packets.arrival_time[is_short]))
        assert not inside.any()

    def test_priority_short_beats_long(self, packets_coupled):
        p = packets_coupled
        sojourn = p.departure_time - p.arrival_time
        assert sojourn[p.class_code == 0].mean() < sojourn[p.class_code == 1].mean()

    def test_decoupled_uses_both_servers(self, packets_decoupled):
        assert set(np.unique(packets_decoupled.server).tolist()) == {0, 1}

    def test_alignment_only_waiters_average_half_slot(self):
        # mu_short=2: slot 0.5, light load so most packets wait only to align
        table = RateAdaptationTable(thresholds=(0.0, math.inf), rates=(0.5,))
        config = TrafficConfig(0.05, 0.01, 2.0, ChannelModel(1.0), table)
        s = run(config, Topology.COUPLED, 40_000, 4_000, seed=5, keep_packets=True)
        waits = s.packets.start_time - s.packets.arrival_time
        waits = waits[waits < 0.5]
        assert len(waits) > 10_000
        assert np.mean(waits) == pytest.approx(0.25, rel=0.02)


def short_wait_mismatches(packets, n_servers):
    """Shorts whose wait, start minus the slot boundary where each became
    available, is not the wait that two things at that boundary fix: each
    server's residual slots, and the shorts ahead of it. Free servers take
    waiting shorts in arrival order, one slot each, and no long starts while
    a short waits. Records in any order; times in slots."""
    order = np.argsort(packets.start_time, kind="stable")
    start, departure, server = (c[order] for c in (packets.start_time,
                                                   packets.departure_time, packets.server))
    shorts = packets.class_code == 0
    by_arrival = np.argsort(packets.arrival_time[shorts], kind="stable")
    arrival, short_start = (c[shorts][by_arrival] for c in (packets.arrival_time,
                                                             packets.start_time))
    boundary = np.ceil(arrival)
    residual = []  # per server: the departure of its last start before each boundary
    for j in range(n_servers):
        before = np.searchsorted(start[server == j], boundary, "left")
        last = np.concatenate(([0.0], departure[server == j]))[before]
        residual.append(np.maximum(last - boundary, 0.0).tolist())
    ahead, mismatches = [], []  # heap: starts of earlier shorts, not before the boundary
    for i, (b, s) in enumerate(zip(boundary.tolist(), short_start.tolist())):
        while ahead and ahead[0] < b:
            heapq.heappop(ahead)
        free = [r[i] for r in residual]
        for _ in ahead:
            free[free.index(min(free))] += 1.0
        if s - b != min(free):
            mismatches.append(i)
        heapq.heappush(ahead, s)
    return mismatches


def mutated_schedule(packets, mutation):
    """`packets` (in start order) with one scheduling fault put in."""
    start, departure, server = (c.copy() for c in (packets.start_time,
                                                   packets.departure_time, packets.server))
    shorts = np.flatnonzero(packets.class_code == 0)
    if mutation == "start-off-grid":
        start[shorts[0]] += 0.5
        departure[shorts[0]] += 0.5
    elif mutation == "shorts-swapped":  # the later short starts first
        i, k = next((a, b) for a, b in zip(shorts, shorts[1:]) if start[b] > start[a])
        for column in (start, departure, server):
            column[[i, k]] = column[[k, i]]
    else:  # "long-before-waiting-short": a short, and the long that starts
        # next on its server, one slot later, there by the short's start: the
        # long goes first instead
        code, arrival = packets.class_code, packets.arrival_time
        following = {}  # the next start on each server, scanning backwards
        for i in range(len(start) - 1, -1, -1):
            k, following[server[i]] = following.get(server[i]), i
            if (k is not None and code[i] == 0 and code[k] == 1
                    and math.ceil(arrival[k]) <= start[i]):
                break
        else:
            raise AssertionError("no short is followed by a long that waited")
        s, d = start[i], packets.service_duration[k]
        start[k], departure[k] = s, s + d
        start[i], departure[i] = s + d, s + d + 1.0
    return replace(packets, start_time=start, departure_time=departure, server=server)


class TestShortWaitMap:
    @pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.value)
    @pytest.mark.parametrize("rho", [0.3, 0.7, 0.9])
    def test_each_short_waits_as_its_boundary_state_fixes(self, rho, topology):
        packets = run(fig3_config(rho), topology, 60_000, seed=5, keep_packets=True).packets
        assert short_wait_mismatches(packets, topology.n_servers) == []

    @pytest.mark.parametrize("mutation", ["long-before-waiting-short", "shorts-swapped",
                                          "start-off-grid"])
    def test_scheduling_faults_fail_it(self, mutation):
        packets = run(fig3_config(0.7), Topology.DECOUPLED, 20_000, seed=5,
                      keep_packets=True).packets
        assert short_wait_mismatches(mutated_schedule(packets, mutation), 2) != []


class TestPacketColumns:
    def test_columns_are_read_only(self, packets_coupled):
        for name in ("class_code", "arrival_time", "service_duration", "start_time",
                     "departure_time", "server"):
            with pytest.raises(ValueError):
                getattr(packets_coupled, name)[0] = 0

    def test_one_packet_per_departure(self, packets_coupled):
        assert len(packets_coupled) == 30_000

    def test_rows_equal_columns(self, packets_decoupled):
        p = packets_decoupled
        rows = list(p)
        assert all(isinstance(row, Packet) for row in rows)
        assert [r.kind for r in rows] == [("short", "long")[c] for c in p.class_code.tolist()]
        for name in ("arrival_time", "service_duration", "start_time", "departure_time",
                     "server"):
            assert [getattr(r, name) for r in rows] == getattr(p, name).tolist()

    def test_columns_are_one_block_that_later_runs_leave_alone(self, tmp_path):
        # six aligned, read-only views of one block of 41 bytes per start;
        # each later run allocates its own, with a trace or without
        packets = run(fig3_config(0.7), Topology.DECOUPLED, 5_000, seed=31, keep_packets=True,
                      trace_path=str(tmp_path / "first.csv")).packets
        columns = packets._columns()
        [block] = {id(column.base): column.base for column in columns}.values()
        assert block.nbytes == 41 * 5_000
        assert [column.dtype for column in columns] == [
            np.uint8, np.float64, np.float64, np.float64, np.float64, np.int64]
        assert all(column.flags.aligned and column.flags.c_contiguous
                   and not column.flags.writeable for column in columns)
        before = [column.tobytes() for column in columns]
        for trace in ("later.csv", None):
            later = run(fig3_config(0.7), Topology.DECOUPLED, 5_000, seed=32, keep_packets=True,
                        trace_path=trace and str(tmp_path / trace)).packets
            assert not any(np.shares_memory(block, column) for column in later._columns())
        assert [column.tobytes() for column in columns] == before

    def test_equality_is_column_by_column(self, packets_coupled):
        again = run(fig3_config(0.6), Topology.COUPLED, 30_000, 1_000, seed=21,
                    keep_packets=True).packets
        other = run(fig3_config(0.6), Topology.COUPLED, 30_000, 1_000, seed=22,
                    keep_packets=True).packets
        assert again == packets_coupled
        assert other != packets_coupled
        assert packets_coupled != 5  # __eq__ defers to the other operand


def class_arrival_z(packets, config, n_servers, warmup):
    """Per class, the z score of the records whose arrival lies in the
    window, from the start of record `warmup` to the last start, against
    their Poisson mean, n_servers * lambda_c * the window's length."""
    t_w, t_end = packets.start_time[warmup], packets.start_time[-1]
    inside = (packets.arrival_time > t_w) & (packets.arrival_time <= t_end)
    z = []
    for code, lam in enumerate((config.lambda_short, config.lambda_long)):
        count = np.count_nonzero(inside & (packets.class_code == code))
        expected = n_servers * lam * (t_end - t_w)
        z.append((count - expected) / math.sqrt(expected))
    return z


class TestConservation:
    # 400 k departures: at 200 k a long class 1% sparse read z = -2.88 (seed 2)
    @pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.value)
    def test_each_class_arrives_at_its_rate(self, topology):
        config = fig3_config(0.7)
        s = run(config, topology, 400_000, seed=1, keep_packets=True)
        z = class_arrival_z(s.packets, config, topology.n_servers, 40_000)
        assert max(map(abs, z)) <= 3, z

    def test_class_rate_check_catches_sparse_long_arrivals(self, monkeypatch):
        # the decoupled run's long arrivals 1% sparse: a load ~1% low, which
        # the busy-fraction tolerance of 0.01 lets through
        draw = sim._draw

        def sparse_long(seqs, lam, service, n, fill):
            d = draw(seqs, lam, service, n, fill)
            if isinstance(service, sim._TableTTIs):
                d = sim._ClassDraws(d.arrivals * 1.01, d.services, d.limit)
            return d

        monkeypatch.setattr(sim, "_draw_slot", [])
        monkeypatch.setattr(sim, "_draw", sparse_long)
        config = fig3_config(0.7)
        s = run(config, Topology.DECOUPLED, 400_000, seed=1, keep_packets=True)
        z_short, z_long = class_arrival_z(s.packets, config, 2, 40_000)
        assert abs(z_short) <= 3 and z_long < -3, (z_short, z_long)

    def test_little_and_busy_coupled(self):
        s = run(fig3_config(0.7), Topology.COUPLED, 220_000, 20_000, seed=3)
        assert s.little_residual < 0.01
        assert abs(s.busy_fraction[0] - 0.7) <= 0.01

    def test_little_and_mean_busy_decoupled(self):
        s = run(fig3_config(0.7), Topology.DECOUPLED, 220_000, 20_000, seed=3)
        assert s.little_residual < 0.01
        # index tie-breaking loads server 0 harder; conservation holds for the mean
        assert s.busy_fraction[0] > s.busy_fraction[1]
        assert abs(s.mean_busy_fraction - 0.7) <= 0.01

    def test_decoupled_faster_than_coupled(self):
        coupled = run(fig3_config(0.7), Topology.COUPLED, 120_000, 12_000, seed=3)
        decoupled = run(fig3_config(0.7), Topology.DECOUPLED, 120_000, 12_000, seed=3)
        assert decoupled.long.mean < coupled.long.mean
        assert decoupled.short.mean < coupled.short.mean

    def test_arrival_rate_estimate(self):
        config = fig3_config(0.5)
        s = run(config, Topology.COUPLED, 220_000, 20_000, seed=13)
        lam = config.lambda_short + config.lambda_long
        assert s.arrival_rate_estimate == pytest.approx(lam, rel=0.01)


def student_t_pdf(x, dof):
    return math.exp(math.lgamma((dof + 1) / 2) - math.lgamma(dof / 2)
                    - 0.5 * math.log(dof * math.pi) - (dof + 1) / 2 * math.log1p(x * x / dof))


def student_t_cdf(q, dof, n=4000):
    """Student's t CDF at q >= 0: 1/2 plus Simpson's rule over (0, q), stdlib only."""
    h = q / n
    weights = [1] + [4 if i % 2 else 2 for i in range(1, n)] + [1]
    return 0.5 + h / 3 * math.fsum(w * student_t_pdf(i * h, dof) for i, w in enumerate(weights))


def test_ci_quantile_is_student_t_for_the_batch_count():
    """The batch-means CI multiplier is t(0.975) at N_BATCHES - 1 dof, to 1e-12."""
    dof, q = sim.N_BATCHES - 1, sim._T975_31
    newton_step = (student_t_cdf(q, dof) - 0.975) / student_t_pdf(q, dof)
    assert abs(newton_step) <= 1e-12
    assert abs(student_t_cdf(q, dof - 1) - 0.975) / student_t_pdf(q, dof) > 1e-6


class TestDeterminism:
    def test_same_seed_bitwise_equal(self):
        a = run(fig3_config(0.7), Topology.DECOUPLED, 60_000, seed=9)
        b = run(fig3_config(0.7), Topology.DECOUPLED, 60_000, seed=9)
        assert a == b

    def test_different_seed_differs(self):
        a = run(fig3_config(0.7), Topology.COUPLED, 60_000, seed=9)
        b = run(fig3_config(0.7), Topology.COUPLED, 60_000, seed=10)
        assert a.short.mean != b.short.mean

    def test_convergence_flag(self):
        good = run(fig3_config(0.5), Topology.COUPLED, 220_000, 20_000, seed=2)
        assert good.converged
        tiny = run(fig3_config(0.85), Topology.COUPLED, 600, 60, seed=2)
        assert not tiny.converged


def searchsorted_long_services(channel, table, rng, n):
    """The binary-search lookup, the reference for sample_long_services."""
    snr = rng.standard_exponential(n) * channel.mean_snr
    idx = np.searchsorted(np.asarray(table.thresholds[1:-1]), snr, side="left")
    return np.asarray(table.durations)[idx]


class TestLongServiceLookup:
    @pytest.mark.parametrize("topology", list(Topology), ids=lambda t: t.value)
    @pytest.mark.parametrize("mode", ["aligned", "unaligned"])
    def test_run_equals_binary_search_run(self, monkeypatch, topology, mode):
        # the run's own draw (compiled where a compiler works) against the
        # Python draw with the binary-search lookup in place of the counting one
        def fig3_run():
            return run(fig3_config(0.7), topology, 40_000, seed=5,
                       mode=mode, keep_packets=True)

        monkeypatch.setattr(sim, "_draw_slot", [])  # each run draws its own
        got = fig3_run()
        lookups = []

        def searchsorted_lookups(*args):
            lookups.append(1)
            return searchsorted_long_services(*args)

        monkeypatch.setattr(sim, "sample_long_services", searchsorted_lookups)
        monkeypatch.setattr(sim, "_draw_slot", [])
        monkeypatch.setattr(sim, "_kernel", lambda: PY_KERNEL)
        want = fig3_run()
        assert lookups  # the reference run drew through the binary search
        assert got == want
        assert got.packets == want.packets


class TestSweep:
    def test_single_point_equals_run(self):
        scen = default_scenario()
        pts = sweep(scen, Topology.COUPLED, [0.5], 50_000, seed_base=123)
        direct = run(scen.config_for(0.5), Topology.COUPLED, 50_000, seed=123)
        assert len(pts) == 1
        assert pts[0].rho == 0.5
        assert pts[0].error is None
        assert pts[0].summary == direct

    def test_repeat_points_identical(self):
        scen = default_scenario()
        pts = sweep(scen, Topology.COUPLED, [0.4, 0.4], 30_000, seed_base=7)
        # same rho and same derived seed would coincide; seeds differ by index
        assert pts[0].summary != pts[1].summary
        again = sweep(scen, Topology.COUPLED, [0.4, 0.4], 30_000, seed_base=7)
        assert [p.summary for p in pts] == [p.summary for p in again]

    def test_errors_do_not_abort(self):
        pts = sweep(default_scenario(), Topology.COUPLED, [0.5, 1.2, 0.3], 20_000,
                    seed_base=1)
        assert pts[0].error is None and pts[0].summary is not None
        assert pts[1].error is not None and pts[1].summary is None
        assert pts[2].error is None and pts[2].summary is not None


def compiled_kernel():
    kernel = sim._kernel()
    if kernel.schedule is sim._schedule_py:
        pytest.skip("no working C compiler")
    return kernel


PY_KERNEL = sim._Kernel(sim._schedule_py, sim._write_trace, sim._fill_draw)


def trace_writer(name):
    """The compiled ("c") or Python ("py") trace writer."""
    return compiled_kernel().write_trace if name == "c" else sim._write_trace


# the order of simultaneous trace events: a packet that starts as it
# arrives is counted in before it is taken out
TRACE_RANK = {"depart": 0, "arrival": 1, "start": 2}


def reference_write_trace(path, short_arrivals, long_arrivals, records, n_servers, scale):
    """The trace writer built on `csv.writer` and Python's sort, kept to pin
    the writers' bytes: rows by time, then rank, then the order made (short
    arrivals, long arrivals, starts, departures)."""
    cls, duration, start, server = (np.asarray(a).tolist() for a in records)
    made = [(t / n_servers, "arrival", c, -1)
            for c, arrivals in enumerate((short_arrivals, long_arrivals))
            for t in np.asarray(arrivals).tolist()]
    made += [(s, "start", c, j) for c, s, j in zip(cls, start, server)]
    made += [(s + d, "depart", c, j) for c, d, s, j in zip(cls, duration, start, server)]
    queue = [0, 0]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["time", "event", "class", "server", "queue_len_short", "queue_len_long"])
        for t, _, _, event, c, j in sorted((t, TRACE_RANK[e], i, e, c, j)
                                           for i, (t, e, c, j) in enumerate(made)):
            queue[c] += {"arrival": 1, "start": -1, "depart": 0}[event]
            w.writerow([format(t * scale, ".9g"), event, ("short", "long")[c],
                        j if j >= 0 else "", *queue])


def tie_range(k):
    """Odd numerators a, as [lo, hi), whose a / 2**(k + 1) lies in
    [10**(8 - k), 10**(9 - k)): each such value ends in 5 at exactly its 10th
    significant digit, a tie for 9 digits."""
    lo, hi = (math.ceil(Fraction(10) ** (e - k) * 2 ** (k + 1)) for e in (8, 9))
    return lo, hi


@st.composite
def tenth_digit_ties(draw):
    """Exact binary ties at the 10th significant digit, such as 1234567.125,
    from 1e-4 up to 1e9, and the integer ties 10j + 5 above 1e9."""
    k = draw(st.integers(-1, 13))
    if k < 0:
        return float(10 * draw(st.integers(10**8, 10**9 - 1)) + 5)
    lo, hi = tie_range(k)
    # odd numerators 2j + 1 in [lo, hi)
    j = draw(st.integers(lo // 2, (hi - 2) // 2))
    return (2 * j + 1) / 2 ** (k + 1)


def g9_edges():
    """Times where "%.9g" switches or carries: powers of ten from 1e-6 to
    1e12 with 3 neighbours each way, the 1e-4 and 1e9 notation switches and
    the 999999999.5 carry with theirs, zero and a subnormal."""
    edges = [0.0, 5e-324]
    for x in [10.0**e for e in range(-6, 13)] + [9.9999999995e-5, 999999999.5,
                                                  999999999.4999999, 9999999995.0]:
        below = above = x
        for _ in range(3):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
            edges += [below, above]
        edges.append(x)
    return edges


NO_RECORDS = (np.empty(0, np.uint8), np.empty(0), np.empty(0), np.empty(0, np.int64))


@st.composite
def trace_inputs(draw):
    """What a run of 1 or 2 servers hands its trace writer: both classes'
    per-server arrivals, sorted, and one record (class, duration, start,
    server) per start, the starts never decreasing and never before their
    server's last departure. Times come from a few values, tied, in exponent
    form, at rounding ties and at the "%.9g" edges, so that arrivals tie
    across classes and with starts, zero durations tie a departure with its
    start, and departures tie across servers. Records are drawn apart from
    the arrivals, so starts can outrun them and drive the queue counts
    negative."""
    n_servers = draw(st.sampled_from([1, 2]))
    time = st.one_of(st.sampled_from([1e-6, 1.0, 2.0, 3.5]), st.floats(1e-6, 1e16),
                     st.sampled_from(g9_edges()), tenth_digit_ties())
    values = draw(st.lists(time, min_size=1, max_size=6))
    # drawn per server, so that the writer's 1/n gives the values back exactly
    arrivals = [np.array(sorted(draw(st.lists(st.sampled_from(values), max_size=12))))
                * n_servers for _ in range(2)]
    free = [0.0] * n_servers
    records, last = [], 0.0
    for _ in range(draw(st.integers(0, 12))):
        j = draw(st.integers(0, n_servers - 1))
        start = max(draw(st.sampled_from(values)), last, free[j])
        duration = draw(st.sampled_from([0.0, 1.0, 2.0, 0.5, draw(st.sampled_from(values))]))
        records.append((draw(st.integers(0, 1)), duration, start, j))
        last, free[j] = start, start + duration
    cls, duration, start, server = zip(*records) if records else ((),) * 4
    return (*arrivals, (np.array(cls, np.uint8), np.array(duration, dtype=float),
                        np.array(start, dtype=float), np.array(server, np.int64)), n_servers)


def g9_probes():
    """At least 10**5 seeded doubles from 1e-6 to 1e12 for "%.9g": log-uniform
    values, exact 10th-digit ties at every decimal exponent, doubles nearest
    the decimal half points (ties missed by less than an ulp), short dyadic
    fractions, and the edges; then whole numbers of every length up to 1e9,
    and signed zeros and whole numbers at each power of ten, at 1e9 and at
    2**53, with their negatives and the doubles either side of each."""
    rng = np.random.default_rng(20190427)
    parts = [10.0 ** rng.uniform(-6, 12, 40_000)]
    for k in range(14):
        lo, hi = tie_range(k)
        parts.append((2 * rng.integers(lo // 2, hi // 2, 2_000) + 1) / 2.0 ** (k + 1))
    for tie in (5, 50, 500):  # exponent-notation ties from 1e9 up to 1e12
        parts.append((2.0 * tie) * rng.integers(10**8, 10**9, 2_000) + tie)
    nines = rng.integers(10**8, 10**9, 10_000).tolist()
    exps = rng.integers(-14, 4, 10_000).tolist()
    halves = np.array([float(Fraction(2 * n + 1, 2) * Fraction(10) ** e)
                       for n, e in zip(nines, exps)])
    parts += [halves, np.nextafter(halves, 0.0), np.nextafter(halves, np.inf)]
    parts.append(rng.integers(1, 2**30, 10_000) / 2.0 ** rng.integers(0, 40, 10_000))
    parts.append(np.array(g9_edges()))
    parts.append(np.floor(10.0 ** rng.uniform(0, 9, 10_000)))
    whole = [1.0, 999999999.0, 1e9, 2.0**53 - 1, 2.0**53, 2.0**53 + 2]
    whole += [float(10**k + d) for k in range(1, 10) for d in (-1, 0, 1)]
    whole = np.array([0.0, -0.0] + whole + [-x for x in whole])
    parts += [whole, np.nextafter(whole, 0.0), np.nextafter(whole, np.inf)]
    return np.concatenate(parts)


_RAMP = np.arange(1.0, 251.0)
# trace writer inputs (short and long arrivals, records, servers) whose
# counts and servers take more digits than `trace_inputs` draws, or whose
# equal times differ in sign, which it never draws
WIDE_TRACES = {
    # 250 short arrivals before any start: the short count climbs to 250
    "count-up": (_RAMP, np.empty(0), (np.zeros(250, np.uint8), np.ones(250), _RAMP + 250,
                                      np.zeros(250, np.int64)), 1),
    # the same for the long count
    "long-count-up": (np.empty(0), _RAMP, (np.ones(250, np.uint8), np.ones(250), _RAMP + 250,
                                           np.zeros(250, np.int64)), 1),
    # 250 starts and no arrival: the short count falls to -250
    "count-down": (np.empty(0), np.empty(0), (np.zeros(250, np.uint8), np.ones(250), _RAMP,
                                              np.zeros(250, np.int64)), 1),
    # 12 servers, one long start on each, the last on server 11
    "twelve-servers": (np.empty(0), 12 * _RAMP[:12], (np.ones(12, np.uint8), np.full(12, 3.5),
                                                       _RAMP[:12], np.arange(12)), 12),
    # an arrival at -0 and zero-length services started at 0 and at -0: both
    # departures at 0, then the arrival at -0, the start at 0, the start at -0
    "signed-zeros": (np.array([-0.0]), np.empty(0),
                     (np.zeros(2, np.uint8), np.zeros(2), np.array([0.0, -0.0]),
                      np.zeros(2, np.int64)), 1),
}


# sha256 of trace files, which every writer must keep: fig3-rho0.7 as the
# Python writer wrote it before the compiled writer existed, and
# half-slot-unaligned since arrivals come before starts at equal times; then
# sha256 of the same run's packet columns (`packets_digest`), which no layout
# of the columns in memory may change
PINNED_TRACES = {
    "fig3-rho0.7": (dict(config=fig3_config(0.7)),
                    "302a459bd796dd9f8b58779f011d136a8c6ecddb957c49471daa6cffaf3edf68",
                    "d524288c4c997f8cc08ea9d0723e4e5d57d84f59b6937cf72252655fd6ae8135"),
    # slot 0.5 and starts off the slot grid: times that are not whole slots
    "half-slot-unaligned": (dict(config=replace(default_scenario(), mu_short=2.0).config_for(0.7),
                                 mode="unaligned"),
                            "dca5e806b8dbc6685ab98c80c27068b72ba11cae8769abb718e917dd8b4873c2",
                            "cfc9a025926530730bf6ba6949ca1cbc599ba0ee76d84df5e941e59315213f17"),
}


def packets_digest(packets):
    """sha256 of the bytes of every column of `packets`, in order."""
    digest = hashlib.sha256()
    for column in packets._columns():
        digest.update(column.tobytes())
    return digest.hexdigest()


class TestTrace:
    def test_trace_csv(self, tmp_path):
        path = tmp_path / "trace.csv"
        run(fig3_config(0.5), Topology.COUPLED, 500, 0, seed=4, trace_path=str(path))
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        kinds = {r["event"] for r in rows}
        assert kinds == {"arrival", "start", "depart"}
        starts = [r for r in rows if r["event"] == "start"]
        departs = [r for r in rows if r["event"] == "depart"]
        arrivals = [r for r in rows if r["event"] == "arrival"]
        assert len(starts) == 500
        assert len(departs) == 500
        assert len(arrivals) >= 500
        times = [float(r["time"]) for r in rows]
        assert times == sorted(times)
        for r in rows:
            assert int(r["queue_len_short"]) >= 0
            assert int(r["queue_len_long"]) >= 0
            if r["event"] == "arrival":
                assert r["server"] == ""

    def test_trace_times_in_real_units(self, tmp_path):
        # slot = 0.5: trace times must match the packet record times
        table = RateAdaptationTable(thresholds=(0.0, math.inf), rates=(0.5,))
        config = TrafficConfig(0.1, 0.05, 2.0, ChannelModel(1.0), table)
        path = tmp_path / "trace.csv"
        s = run(config, Topology.COUPLED, 200, 0, seed=6,
                trace_path=str(path), keep_packets=True)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        trace_starts = sorted(float(r["time"]) for r in rows if r["event"] == "start")
        packet_starts = sorted(p.start_time for p in s.packets)
        assert trace_starts == pytest.approx(packet_starts)
        assert all(abs(t / 0.5 - round(t / 0.5)) < 1e-9 for t in trace_starts)

    @settings(max_examples=200, deadline=None)
    @given(trace_inputs(), st.sampled_from([1.0, 0.5, 0.25]))
    def test_writer_matches_csv_module_reference(self, tmp_path_factory, inputs, scale):
        tmp = tmp_path_factory.mktemp("trace")
        reference_write_trace(str(tmp / "ref.csv"), *inputs, scale)
        for writer in ("py", "c"):  # the Python writer is checked even without a compiler
            trace_writer(writer)(str(tmp / f"{writer}.csv"), *inputs, scale)
            assert (tmp / f"{writer}.csv").read_bytes() == (tmp / "ref.csv").read_bytes(), writer

    @pytest.mark.parametrize("scale", [1.0, 0.5])
    @pytest.mark.parametrize("name", sorted(WIDE_TRACES))
    def test_writer_matches_reference_on_wide_fields(self, tmp_path, monkeypatch, name, scale):
        inputs = WIDE_TRACES[name]
        reference_write_trace(str(tmp_path / "ref.csv"), *inputs, scale)
        # chunks of 7 rows too, which end inside runs of equal times
        for chunk in (sim._CHUNK, 7):
            monkeypatch.setattr(sim, "_CHUNK", chunk)
            for writer in ("py", "c"):  # the Python writer is checked even without a compiler
                trace_writer(writer)(str(tmp_path / f"{writer}.csv"), *inputs, scale)
                assert ((tmp_path / f"{writer}.csv").read_bytes()
                        == (tmp_path / "ref.csv").read_bytes()), (writer, chunk)

    @pytest.mark.parametrize("writer", ["c", "py"])
    @pytest.mark.parametrize("name", sorted(PINNED_TRACES))
    def test_trace_matches_recorded_digest(self, tmp_path, monkeypatch, writer, name):
        kwargs, digest, packet_digest = PINNED_TRACES[name]
        kernel = sim._kernel()._replace(write_trace=trace_writer(writer))
        monkeypatch.setattr(sim, "_kernel", lambda: kernel)
        path = tmp_path / "trace.csv"
        traced = run(topology=Topology.DECOUPLED, horizon=20_000, seed=3, trace_path=str(path),
                     keep_packets=True, **kwargs)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
        # packets scale the records in place, after the trace has read them
        untraced = run(topology=Topology.DECOUPLED, horizon=20_000, seed=3, keep_packets=True,
                       **kwargs)
        assert traced.packets == untraced.packets
        assert packets_digest(traced.packets) == packet_digest

    @pytest.mark.parametrize("writer", ["c", "py"])
    def test_trace_digest_holds_in_short_chunks(self, tmp_path, monkeypatch, writer):
        # chunks of 7 rows end inside runs of equal times, whose repeats the
        # compiled writer copies from an earlier row of the same chunk
        monkeypatch.setattr(sim, "_CHUNK", 7)
        self.test_trace_matches_recorded_digest(tmp_path, monkeypatch, writer, "fig3-rho0.7")

    def test_compiled_writer_streams(self, tmp_path, monkeypatch):
        # what the writer allocates is its row buffer, however long the trace;
        # tracemalloc sees numpy's buffers too
        kernel = compiled_kernel()
        peaks = []
        for horizon in (20_000, 200_000):
            calls = []
            recording = kernel._replace(write_trace=lambda *args: calls.append(args))
            monkeypatch.setattr(sim, "_kernel", lambda: recording)
            run(fig3_config(0.7), Topology.DECOUPLED, horizon, seed=3,
                trace_path=str(tmp_path / "trace.csv"))
            (args,) = calls
            tracemalloc.start()
            try:
                kernel.write_trace(*args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        slack = 64 * 1024
        assert peaks[1] <= peaks[0] + slack
        assert max(peaks) <= sim._CHUNK * sim._ROW_BYTES + slack, peaks

    def test_compiled_time_format_is_percent_g(self, tmp_path):
        # sorted times as the short arrivals of one server come out row by row
        times = np.sort(g9_probes())
        n = len(times)
        assert n >= 10**5
        path = tmp_path / "times.csv"
        trace_writer("c")(str(path), times, np.empty(0), NO_RECORDS, 1, 1.0)
        got = [row.partition(",")[0] for row in path.read_bytes().decode().split("\r\n")[1:-1]]
        want = ["%.9g" % x for x in times.tolist()]
        assert len(got) == n
        assert [(x, g, w) for x, g, w in zip(times.tolist(), got, want) if g != w][:10] == []

    @pytest.mark.parametrize("bad", ["class", "server", "length", "short-arrivals-order",
                                     "long-arrivals-order", "starts-order",
                                     "departures-order"])
    def test_compiled_writer_rejects_bad_events(self, tmp_path, bad):
        # the merge indexes its names by class and its cursors by server, and
        # checks that the times it emits never decrease
        arrivals = {"short": np.array([1.0, 2.0]), "long": np.array([1.5, 3.0])}
        records = {"cls": np.array([0, 1], np.uint8), "duration": np.array([1.0, 1.0]),
                   "start": np.array([1.0, 2.0]), "server": np.array([0, 1], np.int64)}
        path = str(tmp_path / "trace.csv")

        def write():
            trace_writer("c")(path, arrivals["short"], arrivals["long"],
                              tuple(records.values()), 2, 1.0)

        write()
        if bad == "class":
            records["cls"][1] = 2
        elif bad == "server":
            records["server"][1] = 2
        elif bad == "length":
            records["server"] = records["server"][:1]
        elif bad.endswith("arrivals-order"):
            kind = bad.partition("-")[0]
            arrivals[kind] = arrivals[kind][::-1]
        elif bad == "starts-order":
            records["start"] = np.array([2.0, 1.0])
        else:  # one server whose second departure comes before its first
            records["server"][1] = 0
            records["duration"] = np.array([5.0, 1.0])
        with pytest.raises(ValueError, match="above|range|order|length"):
            write()

    def test_packet_type_validation(self):
        with pytest.raises(ValueError):
            Packet("short", 5.0, 1.0, 4.0, 5.0, 0)  # starts before arrival
        with pytest.raises(ValueError):
            Packet("short", 1.0, 1.0, 2.0, 4.0, 0)  # departure mismatch


@st.composite
def small_runs(draw):
    """A random scenario (1-6 SNR regions, load up to 0.95) and run options."""
    m = draw(st.integers(1, 6))
    inner_db = sorted(draw(st.lists(st.integers(-10, 30), min_size=m - 1,
                                    max_size=m - 1, unique=True)))
    slots = sorted(draw(st.lists(st.integers(1, 20), min_size=m, max_size=m)), reverse=True)
    mu_short = draw(st.sampled_from([0.5, 1.0, 2.0, 4.0]))
    table = RateAdaptationTable.from_tti_durations(inner_db, [k / mu_short for k in slots])
    channel = ChannelModel.from_db(draw(st.integers(-5, 20)))
    rho = draw(st.floats(0.05, 0.95))
    config = Scenario(channel, table, mu_short, draw(st.floats(0.0, 4.0))).config_for(rho)
    mode = draw(st.sampled_from(["aligned", "unaligned", "exponential"]))
    horizon = draw(st.integers(1, 300))
    return dict(
        config=config,
        topology=draw(st.sampled_from(list(Topology))),
        horizon=horizon,
        warmup=draw(st.integers(0, horizon - 1)),
        seed=draw(st.integers(0, 2**32 - 1)),
        mode=mode,
    )


@settings(max_examples=100, deadline=None)
@given(small_runs())
def test_trace_queue_counts_never_negative(tmp_path_factory, kwargs):
    # a packet that starts the moment it arrives, as unaligned runs start
    # one whenever a server is idle, is counted in before it is taken out
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    run(trace_path=str(path), **kwargs)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r for r in rows if min(int(r["queue_len_short"]), int(r["queue_len_long"])) < 0] == []


def traced_run(trace_path, **kwargs):
    """run() with packets kept and a trace written: (summary, trace bytes)."""
    summary = run(keep_packets=True, trace_path=str(trace_path), **kwargs)
    return summary, trace_path.read_bytes()


def run_on(kernel, trace_path, **kwargs):
    """`traced_run` with the given scheduling loop and trace writer."""
    with mock.patch.object(sim, "_kernel", lambda: kernel):
        return traced_run(trace_path, **kwargs)


@st.composite
def lookup_tables(draw):
    """Rate tables of 1-6 regions whose TTIs all differ, so that every
    threshold separates two TTIs."""
    m = draw(st.integers(1, 6))
    inner = draw(st.lists(st.floats(0.01, 100.0), min_size=m - 1, max_size=m - 1, unique=True))
    rates = draw(st.lists(st.floats(0.05, 5.0), min_size=m, max_size=m, unique=True))
    return RateAdaptationTable(thresholds=(0.0, *sorted(inner), math.inf),
                               rates=tuple(sorted(rates)))


class UnitDraws:
    """A generator stub whose unit exponentials are the given values, in
    order, whether asked for by count or into an array."""

    def __init__(self, values):
        self.values, self.used = np.asarray(values, dtype=float), 0

    def standard_exponential(self, size=None, out=None):
        n = size if out is None else len(out)
        part = self.values[self.used:self.used + n]
        assert len(part) == n
        self.used += n
        if out is None:
            return part.copy()
        out[:] = part
        return out


def fill_from_units(fill, gaps, units, lam, service):
    """(arrivals, services) that a kernel's `fill_draw` writes from the unit
    exponentials `gaps` and `units`."""
    arrivals, services = np.full(len(gaps), np.nan), np.full(len(units), np.nan)
    fill(UnitDraws(gaps), UnitDraws(units), lam, service, arrivals, services)
    return arrivals, services


class TestCompiledKernel:
    @settings(max_examples=200, deadline=None)
    @given(small_runs())
    def test_matches_python_reference(self, tmp_path_factory, kwargs):
        # the compiled loop, with either writer, against the Python loop and writer
        tmp = tmp_path_factory.mktemp("kernel")
        expected = run_on(PY_KERNEL, tmp / "py.csv", **kwargs)
        for writer in ("c", "py"):
            got = run_on(compiled_kernel()._replace(write_trace=trace_writer(writer)),
                         tmp / f"c-{writer}.csv", **kwargs)
            assert got == expected, writer

    @settings(max_examples=200, deadline=None)
    @given(lookup_tables(), st.sampled_from([1.0, 0.5, 0.3]), st.booleans(),
           st.lists(st.floats(0.0, 50.0), max_size=40))
    def test_draw_finisher_looks_up_regions_as_numpy(self, table, slot, aligned, extra):
        # unit draws on each interior threshold (an SNR equal to one falls in
        # the lower region), a step either side of it, and 0.0
        inner = np.asarray(table.thresholds[1:-1])
        snr = np.concatenate([inner, np.nextafter(inner, -np.inf),
                              np.nextafter(inner, np.inf), [0.0], extra])
        service = sim._TableTTIs(ChannelModel(1.0), table, slot, aligned)
        got, want = (fill_from_units(fill, np.ones(len(snr)), snr, 1.0, service)
                     for fill in (compiled_kernel().fill_draw, sim._fill_draw))
        assert got[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("lam", [1.0, 0.7, 3.0, 1e-307], ids=str)
    def test_draw_finisher_sums_arrivals_as_numpy(self, lam):
        # gaps divided by the rate, then summed in order (at 1e-307 they
        # overflow to +inf)
        units = np.random.default_rng(7).standard_exponential(32_773)
        units[:3] = (0.0, 5e-324, 1.0)
        with np.errstate(over="ignore"):
            want = np.cumsum(units / lam)
        for fill in (compiled_kernel().fill_draw, sim._fill_draw):
            got, _ = fill_from_units(fill, units, units, lam, sim._one_slot)
            assert got.tobytes() == want.tobytes()

    def test_shares_its_constants_with_python(self):
        # the return codes, the 2**53 bound, the row bound and the trace
        # ranks are written once on each side
        source = sim._SOURCE.read_text(encoding="utf-8")
        enum = re.search(r"enum \{([^}]*)\}", source).group(1)
        codes = {name: int(value) for name, value in re.findall(r"(TDDQ_\w+) = (\d+)", enum)}
        assert codes == {"TDDQ_DONE": sim._DONE, "TDDQ_NEED_MORE": sim._NEED_MORE,
                         "TDDQ_BREACH": sim._BREACH, "TDDQ_STALLED": sim._STALLED}
        exact = re.search(r"#define TDDQ_EXACT_SLOTS (\S+)", source).group(1)
        assert float(exact) == sim._EXACT_SLOTS
        row_bytes = re.search(r"#define TDDQ_ROW_BYTES (\d+)", source).group(1)
        assert int(row_bytes) == sim._ROW_BYTES
        ranks = dict(re.findall(r"TDDQ_(DEPART|ARRIVAL|START) = (\d+)", source))
        assert ranks == {"DEPART": str(sim._DEPART), "ARRIVAL": str(sim._ARRIVAL),
                         "START": str(sim._START)}

    def test_growing_the_draws_leaves_results_unchanged(self, tmp_path, monkeypatch):
        # both topologies, since the compiled loop has its own copy for one server
        jobs = {topology: dict(config=fig3_config(0.9), topology=topology,
                               horizon=3_000, warmup=300, seed=31) for topology in Topology}
        expected = {topology: run_on(compiled_kernel(), tmp_path / "ref.csv", **kwargs)
                    for topology, kwargs in jobs.items()}
        monkeypatch.setattr(sim, "_initial_draws", lambda horizon, share: 1)
        for topology, kwargs in jobs.items():
            for name, kernel in (("c", compiled_kernel()), ("py", PY_KERNEL)):
                monkeypatch.setattr(sim, "_draw_slot", [])  # nothing held
                calls = []

                def counting(*args, schedule=kernel.schedule):
                    calls.append(1)
                    return schedule(*args)

                assert run_on(kernel._replace(schedule=counting), tmp_path / f"{name}.csv",
                              **kwargs) == expected[topology], (topology, name)
                assert len(calls) > 1, (topology, name)  # at least one grow-and-rerun

    @pytest.fixture
    def fresh_kernel(self):
        sim._build_kernel.cache_clear()
        yield
        sim._build_kernel.cache_clear()

    def test_no_compiler_falls_back_to_reference(self, tmp_path, monkeypatch, fresh_kernel):
        # both Python twins: the same summary, packets and trace bytes
        kwargs = dict(config=fig3_config(0.7), topology=Topology.DECOUPLED, horizon=5_000, seed=8)
        expected = run_on(compiled_kernel(), tmp_path / "c.csv", **kwargs)
        sim._build_kernel.cache_clear()
        monkeypatch.setattr(sim, "_CC", "tddq-no-such-compiler")
        with pytest.warns(RuntimeWarning, match="Python reference") as caught:
            # called from here, so that the warning must name this file
            first = run(keep_packets=True, trace_path=str(tmp_path / "first.csv"), **kwargs)
            second = traced_run(tmp_path / "second.csv", **kwargs)
        assert len(caught) == 1 and caught[0].filename == __file__
        assert sim._kernel() == (sim._schedule_py, sim._write_trace, sim._fill_draw)
        assert (first, (tmp_path / "first.csv").read_bytes()) == expected
        assert second == expected

    @pytest.mark.filterwarnings("ignore:cannot build the C kernel:RuntimeWarning")
    def test_racing_first_calls_build_once(self, monkeypatch, fresh_kernel):
        builds, kernels = [], []
        compile_ = subprocess.run

        def counting(*args, **kwargs):
            builds.append(1)
            time.sleep(0.05)  # keeps the race open even when no compiler is found
            return compile_(*args, **kwargs)

        monkeypatch.setattr(sim.subprocess, "run", counting)
        barrier = threading.Barrier(2)

        def first_call():
            barrier.wait(timeout=30)
            kernels.append(sim._kernel())

        threads = [threading.Thread(target=first_call) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not any(thread.is_alive() for thread in threads)
        assert len(builds) == 1
        assert len(kernels) == 2 and kernels[0] is kernels[1]

    def test_compiled_runs_leave_no_garbage_cycles(self, tmp_path):
        # with gc off, what a run leaves in reference cycles would pile up
        compiled_kernel()
        kwargs = dict(config=fig3_config(0.7), topology=Topology.DECOUPLED, horizon=2_000, seed=5)
        for extra in ({}, {"keep_packets": True}, {"trace_path": str(tmp_path / "trace.csv")}):
            run(**kwargs, **extra)  # anything a first run sets up once
            gc.collect()
            gc.disable()
            try:
                for _ in range(5):
                    run(**kwargs, **extra)
                assert gc.collect() == 0, extra
            finally:
                gc.enable()

    def test_source_compiles_without_warnings(self, tmp_path):
        # run() builds the kernel with its compiler output dropped; this shows it
        if shutil.which(sim._CC) is None:
            pytest.skip(f"no {sim._CC} compiler")
        result = subprocess.run(
            [sim._CC, "-std=c99", "-O2", "-Wall", "-Wextra", "-Wpedantic", "-Werror",
             "-ffp-contract=off", "-c", str(sim._SOURCE), "-o", str(tmp_path / "schedule.o")],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr

    @pytest.mark.parametrize("loop", ["c", "py"])
    @pytest.mark.parametrize("topology", list(Topology))
    @pytest.mark.parametrize("lam", [1e-307, 1e-17], ids=["times-overflow", "times-inexact"])
    def test_vanishing_traffic_rejected(self, monkeypatch, loop, topology, lam):
        # at 1e-307 arrival times overflow to +inf, at 1e-17 they pass 2**53
        # slots, where a one-slot service no longer advances the clock
        kernel = compiled_kernel() if loop == "c" else PY_KERNEL
        monkeypatch.setattr(sim, "_kernel", lambda: kernel)
        config = TrafficConfig(lam, 0.0, 1.0, ChannelModel(1.0), SINGLE_RATE)
        with pytest.raises(ValueError, match="vanishing traffic"):
            run(config, topology, 1000, seed=1)

    def test_work_conservation_breach_raises(self, monkeypatch):
        kernel = PY_KERNEL._replace(schedule=lambda *args: sim._BREACH)
        monkeypatch.setattr(sim, "_kernel", lambda: kernel)
        with pytest.raises(RuntimeError, match="work conservation"):
            run(MM1_CONFIG, Topology.COUPLED, 100, seed=1)

    @pytest.mark.parametrize("loop", ["c", "py"])
    def test_nan_arrival_stalls_instead_of_spinning(self, loop):
        # with both queues empty a NaN next arrival makes the clock NaN; the
        # loop must stop there. A child process, so that a loop that spins
        # fails on the timeout instead of hanging the suite.
        schedule = "sim._kernel().schedule" if loop == "c" else "sim._schedule_py"
        code = f"""if True:
            import math, numpy as np
            from tddq import sim
            schedule = {schedule}
            if {loop!r} == "c" and schedule is sim._schedule_py:
                raise SystemExit("no working C compiler")
            never = sim._ClassDraws(np.array([math.inf]), np.array([math.inf]), -1)
            nan_first = sim._ClassDraws(np.array([math.nan, 5.0, math.inf]),
                                        np.array([2.0, 2.0, math.inf]), 2)
            for n_servers in (1, 2):
                for aligned in (True, False):
                    out = sim._Schedule(n_servers, 10, 0, never, nan_first, False)
                    print(schedule(n_servers, aligned, 10, 0, never, nan_first, out))
        """
        package = str(Path(sim.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [package, os.environ.get("PYTHONPATH", "")])))
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                env=env, timeout=60)
        if "no working C compiler" in result.stderr:
            pytest.skip("no working C compiler")
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == [str(sim._STALLED)] * 4

    @pytest.mark.parametrize("loop", ["c", "py"])
    @pytest.mark.parametrize("n_servers", [1, 2])
    def test_zero_length_service_runs_the_boundary_again(self, loop, n_servers):
        # an exponential service can be 0: its server is free again at the
        # boundary that started it, with packets still waiting there
        schedule = compiled_kernel().schedule if loop == "c" else sim._schedule_py
        inf = math.inf
        shorts = sim._ClassDraws(np.array([1.0, 1.0, 1.0, 9.0, inf]) * n_servers,
                                 np.array([0.0, 1.0, 1.0, 1.0, inf]), 4)
        never = sim._ClassDraws(np.array([inf]), np.array([inf]), -1)
        out = sim._Schedule(n_servers, 3, 0, shorts, never, True)
        assert schedule(n_servers, False, 3, 0, shorts, never, out) == sim._DONE
        # one server starts packets 0 and 1 at t = 1, two servers start all
        # three there, the third on server 0 when the boundary runs again
        start, server = ([1.0, 1.0, 2.0], [0, 0, 0]) if n_servers == 1 else \
            ([1.0, 1.0, 1.0], [0, 1, 0])
        assert [column.tolist() for column in out.records] == [
            [0, 0, 0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0], start, server]
        assert out.cnt.tolist() == [3, 0, 3, 0]


OTHER = {Topology.COUPLED: Topology.DECOUPLED, Topology.DECOUPLED: Topology.COUPLED}


@st.composite
def run_sequences(draw):
    """Jobs that share a seed (the same run, another horizon, another service
    mode, the same rates with one-slot long TTIs, another config) and an
    order of (job, topology) calls to them."""
    base = draw(small_runs())
    del base["topology"]
    horizon = draw(st.integers(1, 300))
    config = base["config"]
    one_slot = RateAdaptationTable.from_tti_durations([], [config.slot])
    jobs = [
        base,
        dict(base, horizon=horizon, warmup=min(base["warmup"], horizon - 1)),
        dict(base, mode="unaligned" if base["mode"] == "exponential" else "exponential"),
        dict(base, config=replace(config, table=one_slot)),
        dict(base, config=MM1_CONFIG),
    ]
    steps = draw(st.lists(st.tuples(st.integers(0, len(jobs) - 1),
                                    st.sampled_from(list(Topology))), min_size=2, max_size=6))
    return jobs, steps


def uniform_services(rng, n):
    return rng.random(n)


def small_initial_draws(factor):
    """`_initial_draws` at `factor` of a class's expected share, so that runs
    often draw again at twice the size."""
    return lambda horizon, share: max(1, int(horizon * share * factor))


def poison(array):
    """Fill `array` with NaN, keeping whether it refuses writes."""
    writeable = array.flags.writeable
    array.setflags(write=True)
    array.fill(math.nan)
    array.setflags(write=writeable)


class TestSharedDraws:
    """A run leaves its draws to the next run(), which schedules them when
    its seed, config and service mode made them, whatever their sizes. Every
    run must equal a run with nothing held, bit for bit."""

    @staticmethod
    def fresh(tmp, name, **kwargs):
        with mock.patch.object(sim, "_draw_slot", []):
            return traced_run(tmp / f"{name}.csv", **kwargs)

    @settings(max_examples=100, deadline=None)
    @given(run_sequences(), st.sampled_from([None, 0.5, 0.9, 1.0, 1.1]))
    def test_any_order_of_runs_matches_runs_with_nothing_held(
            self, tmp_path_factory, sequence, factor):
        tmp = tmp_path_factory.mktemp("shared")
        jobs, steps = sequence
        draws = (sim._initial_draws if factor is None else small_initial_draws(factor))
        with mock.patch.object(sim, "_initial_draws", draws):
            expected = {
                (job, topo): self.fresh(tmp, f"fresh-{job}-{topo.value}",
                                        topology=topo, **jobs[job])
                for job, topo in set(steps)
            }
            with mock.patch.object(sim, "_draw_slot", []):
                for i, (job, topo) in enumerate(steps):
                    got = traced_run(tmp / f"step-{i}.csv", topology=topo, **jobs[job])
                    assert got == expected[(job, topo)]

    @settings(max_examples=200, deadline=None)
    @given(st.floats(2.0**-1074, 2.0), st.integers(0, 2**32 - 1), st.integers(1, 3000))
    def test_halved_draws_are_the_draws_at_twice_the_rate(self, rate, seed, n):
        # a decoupled run reads the per-server arrivals times 0.5: they must
        # be the arrivals drawn at twice the rate wherever the loop can take
        # one in, below 2**53 slots (elsewhere both are at or above it); with
        # the run's draw filler and its Python reference
        seqs = np.random.SeedSequence(seed).spawn(2)
        for fill in (sim._kernel().fill_draw, sim._fill_draw):
            per_server = sim._draw(seqs, rate, uniform_services, n, fill)
            doubled = sim._draw(seqs, 2.0 * rate, uniform_services, n, fill)
            halved = per_server.arrivals * 0.5
            low = (halved < sim._EXACT_SLOTS) | (doubled.arrivals < sim._EXACT_SLOTS)
            assert np.array_equal(halved[low], doubled.arrivals[low])
            assert np.array_equal(per_server.services, doubled.services)

    def test_draws_refuse_writes_and_outputs_copy_them(self, tmp_path, monkeypatch):
        # the next run may schedule these very arrays: nothing may write the
        # draws, and nothing a run returns may view a draw or its sojourns
        schedules, schedule = [], sim._Schedule
        monkeypatch.setattr(sim, "_draw_slot", [])
        monkeypatch.setattr(sim, "_Schedule",
                            lambda *args: schedules.append(schedule(*args)) or schedules[-1])
        summary = run(fig3_config(0.7), Topology.DECOUPLED, 5_000, seed=23,
                      keep_packets=True, trace_path=str(tmp_path / "t.csv"))
        [(_, draws)] = sim._draw_slot
        [out] = schedules
        arrays = [array for d in draws for array in (d.arrivals, d.services)]
        for array in arrays + [array.base for array in arrays]:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0
        assert not any(np.shares_memory(column, array)
                       for column in summary.packets._columns()
                       for array in [*arrays, out.soj_s, out.soj_l])

    def test_a_seed_is_one_integer(self, monkeypatch):
        # any other seed raises before a draw, leaving the held draws as they
        # were; an integer of another type is that integer's key
        kwargs = dict(config=fig3_config(0.7), topology=Topology.COUPLED, horizon=2_000)
        monkeypatch.setattr(sim, "_draw_slot", [])
        expected = run(seed=5, keep_packets=True, **kwargs)
        [held] = sim._draw_slot
        draws, draw = [], sim._draw
        monkeypatch.setattr(sim, "_draw", lambda *args: draws.append(args) or draw(*args))
        for seed in (None, 1.5, [1, 2]):
            with pytest.raises(TypeError):
                run(seed=seed, **kwargs)
            assert draws == [] and len(sim._draw_slot) == 1 and sim._draw_slot[0] is held
        assert run(seed=np.int64(5), keep_packets=True, **kwargs) == expected
        assert draws == []  # it took seed 5's draws

    @pytest.mark.parametrize("loop", ["c", "py"])
    @pytest.mark.parametrize("mode", ["aligned", "exponential"])
    @settings(max_examples=25, deadline=None)
    @given(small_runs(), small_runs(), st.booleans(), st.sampled_from([None, 0.5, 1.0]))
    def test_poisoned_held_buffers_change_nothing(self, tmp_path_factory, loop, mode,
                                                  first, second, same_key, factor):
        # NaN in the held draws, unless the next run may schedule them,
        # leaves its results those of a run with nothing held
        kernel = compiled_kernel() if loop == "c" else PY_KERNEL
        tmp = tmp_path_factory.mktemp("poison")
        for job in (first, second):
            job.update(mode=mode)
        if same_key:
            second.update(config=first["config"], seed=first["seed"])
        draws = sim._initial_draws if factor is None else small_initial_draws(factor)
        with mock.patch.object(sim, "_initial_draws", draws):
            with mock.patch.object(sim, "_draw_slot", []):
                expected = run_on(kernel, tmp / "fresh.csv", **second)
            with mock.patch.object(sim, "_draw_slot", []):
                run_on(kernel, tmp / "first.csv", **first)
                [(key, held_draws)] = sim._draw_slot
                if key != (second["seed"], second["config"], second["mode"]):
                    for d in held_draws:
                        poison(d.arrivals.base)
                assert run_on(kernel, tmp / "second.csv", **second) == expected

    @settings(max_examples=30, deadline=None)
    @given(small_runs())
    def test_concurrent_runs_match_serial_ones(self, tmp_path_factory, kwargs):
        tmp = tmp_path_factory.mktemp("threads")
        first = kwargs.pop("topology")
        orders = ([first, OTHER[first], first], [OTHER[first], first, OTHER[first]])
        expected = {topo: self.fresh(tmp, topo.value, topology=topo, **kwargs)
                    for topo in Topology}
        start = threading.Barrier(len(orders))
        results = [[] for _ in orders]

        def work(k):
            start.wait()
            for i, topo in enumerate(orders[k]):
                results[k].append(traced_run(tmp / f"t{k}-{i}.csv", topology=topo, **kwargs))

        with mock.patch.object(sim, "_draw_slot", []):
            threads = [threading.Thread(target=work, args=(k,)) for k in range(len(orders))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        for order, got in zip(orders, results):
            assert got == [expected[topo] for topo in order]

    def test_threads_switching_often_match_serial_runs(self, tmp_path):
        # more threads than cores, switching often, each run on another key
        # than the last, so that runs free draws another thread left while
        # the compiled writer reads its own without the interpreter lock
        jobs = [dict(config=fig3_config(0.8), topology=topo, horizon=3_000, seed=seed)
                for seed in range(3) for topo in Topology]
        expected = [self.fresh(tmp_path, f"fresh-{j}", **job) for j, job in enumerate(jobs)]
        results = [[] for _ in range(4)]

        def work(k):
            for i in range(2 * len(jobs)):
                j = (i + k) % len(jobs)
                results[k].append((j, traced_run(tmp_path / f"t{k}-{i}.csv", **jobs[j])))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with mock.patch.object(sim, "_draw_slot", []):
                threads = [threading.Thread(target=work, args=(k,)) for k in range(len(results))]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert len(got) == 2 * len(jobs)
            assert all(result == expected[j] for j, result in got)

    def test_shorter_held_draws_are_taken_and_drawn_again(self, tmp_path, monkeypatch):
        # a 20 k run takes a 2 k run's draws of its key, runs out of them and
        # draws once, at twice its own initial sizes
        config = fig3_config(0.7)
        kwargs = dict(config=config, topology=Topology.DECOUPLED, seed=6)
        expected = self.fresh(tmp_path, "fresh", horizon=20_000, **kwargs)
        monkeypatch.setattr(sim, "_draw_slot", [])
        run(horizon=2_000, **kwargs)
        sizes, passes = [], []
        draw, kernel = sim._draw, sim._kernel()

        def counting_draw(*args):
            sizes.append(args[3])
            return draw(*args)

        def counting_schedule(*args):
            passes.append(1)
            return kernel.schedule(*args)

        monkeypatch.setattr(sim, "_draw", counting_draw)
        got = run_on(kernel._replace(schedule=counting_schedule), tmp_path / "got.csv",
                     horizon=20_000, **kwargs)
        lam_s, lam_l = config.lambda_short * config.slot, config.lambda_long * config.slot
        share = lam_s / (lam_s + lam_l)  # as run() computes it
        initial = [sim._initial_draws(20_000, share), sim._initial_draws(20_000, 1.0 - share)]
        assert got == expected
        assert len(passes) == 2 and sizes == [2 * n for n in initial]

    def test_draws_that_run_short_are_drawn_again(self, tmp_path, monkeypatch):
        # with 2431 long arrivals drawn, the coupled run (seed 0) finishes
        # after taking in 2430, the decoupled one needs all 2431 and draws
        # again at twice the size, after taking the coupled run's draws
        kwargs = dict(config=fig3_config(0.9), horizon=3_000, seed=0)
        monkeypatch.setattr(sim, "_initial_draws",
                            lambda horizon, share: 10_000 if share < 0.5 else 2431)
        expected = self.fresh(tmp_path, "fresh", topology=Topology.DECOUPLED, **kwargs)
        monkeypatch.setattr(sim, "_draw_slot", [])
        run(topology=Topology.COUPLED, **kwargs)
        sizes, passes = [], []
        draw, kernel = sim._draw, sim._kernel()

        def counting_draw(*args):
            sizes.append(args[3])
            return draw(*args)

        def counting_schedule(*args):
            passes.append(1)
            return kernel.schedule(*args)

        monkeypatch.setattr(sim, "_draw", counting_draw)
        got = run_on(kernel._replace(schedule=counting_schedule), tmp_path / "got.csv",
                     topology=Topology.DECOUPLED, **kwargs)
        assert got == expected
        assert len(passes) == 2 and sizes == [20_000, 4862]  # only the second pass drew
