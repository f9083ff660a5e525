"""Every benchmark check passes on a consistent input and fails on a wrong one.

Run with `python3 -m pytest bench`.
"""

import io
import math
import sys
from pathlib import Path

import numpy as np

import checks
from hostspeed import REFERENCE_S, SENSITIVITY, HostSpeed
from tracer import Tracer, self_times

RHOS = (0.5, 0.9)
EXACT = {(0.5, "short"): 2.0, (0.5, "long"): 20.0, (0.9, "short"): 3.0, (0.9, "long"): 90.0}
APPROX = {(0.5, "short"): 1.8, (0.5, "long"): 15.0, (0.9, "short"): 2.5, (0.9, "long"): 60.0}


def sweep_csv(coupled=EXACT, decoupled=APPROX, ci=0.05, error="", drop=0):
    lines = [",".join(checks.SWEEP_HEADER)]
    for rho in RHOS:
        for topo, means in (("coupled", coupled), ("decoupled", decoupled)):
            for kind in ("short", "long"):
                m = means[(rho, kind)]
                lines.append(f"{rho},{kind},{topo},1000,{m},{m},{ci * m},0,{error}")
    return "\n".join(lines[:len(lines) - drop]) + "\n"


def ok(result):
    return result[0]


def test_sweep_checks_pass_on_consistent_output():
    text = sweep_csv()
    assert ok(checks.sweep_csv_shape(text, len(RHOS)))
    assert ok(checks.sweep_csv_errors_empty(text))
    assert ok(checks.coupled_matches_slotted(text, EXACT))
    assert ok(checks.decoupled_within_band(text, APPROX))
    assert ok(checks.littles_law([1e-6, 3e-5]))
    assert ok(checks.busy_fraction([(0.5, 0.501), (0.9, 0.898)]))


def test_truncated_csv_fails():
    text = sweep_csv(drop=1)
    assert not ok(checks.sweep_csv_shape(text, len(RHOS)))
    assert not ok(checks.decoupled_within_band(text, APPROX))
    assert not ok(checks.sweep_csv_shape("", len(RHOS)))


def test_error_column_fails():
    assert not ok(checks.sweep_csv_errors_empty(sweep_csv(error="utilization >= 1")))


def test_swapped_class_means_fail():
    swapped = {(rho, kind): EXACT[(rho, "long" if kind == "short" else "short")]
               for rho, kind in EXACT}
    assert not ok(checks.coupled_matches_slotted(sweep_csv(coupled=swapped), EXACT))


def test_coupled_band_is_in_ci_units():
    # ci95 is 5% of the sim mean: 10% off is 1.8 half widths, 25% off is 4
    near = {**EXACT, (0.5, "short"): EXACT[(0.5, "short")] * 1.10}
    far = {**EXACT, (0.5, "short"): EXACT[(0.5, "short")] * 1.25}
    assert ok(checks.coupled_matches_slotted(sweep_csv(coupled=near), EXACT))
    assert not ok(checks.coupled_matches_slotted(sweep_csv(coupled=far), EXACT))


def test_decoupled_outside_band_fails():
    off = {k: v * 1.3 for k, v in APPROX.items()}
    assert not ok(checks.decoupled_within_band(sweep_csv(decoupled=off), APPROX))


def test_conservation_checks_fail():
    assert not ok(checks.littles_law([1e-6, 0.02]))
    assert not ok(checks.littles_law([float("nan")]))
    assert not ok(checks.littles_law([]))
    assert not ok(checks.busy_fraction([(0.9, 0.88)]))
    assert not ok(checks.busy_fraction([(0.9, float("nan"))]))


# one server, slot 1: short packets take 1 slot, long packets 2
GOOD = {
    "is_short": np.array([True, True, False, False]),
    "arrival": np.array([0.2, 1.5, 0.5, 1.7]),
    "start": np.array([1.0, 2.0, 3.0, 5.0]),
}


def packet_checks(p):
    return [checks.starts_on_slot_grid(p["start"], 1.0),
            checks.fifo_within_class(p["is_short"], p["arrival"], p["start"]),
            checks.short_before_long(p["is_short"], p["arrival"], p["start"])]


def test_packet_checks_pass_on_valid_schedule():
    assert all(ok(r) for r in packet_checks(GOOD))
    assert ok(checks.packet_count(4, 4))


def test_packet_count_mismatch_fails():
    assert not ok(checks.packet_count(3, 4))


def test_off_grid_start_fails():
    bad = dict(GOOD, start=np.array([1.0, 2.5, 3.0, 5.0]))
    assert not ok(packet_checks(bad)[0])


def test_non_fifo_packet_list_fails():
    bad = dict(GOOD, arrival=np.array([0.2, 1.5, 1.7, 0.5]))
    assert not ok(packet_checks(bad)[1])
    unsorted = dict(GOOD, start=np.array([2.0, 1.0, 3.0, 5.0]))
    assert not ok(packet_checks(unsorted)[1])


def test_long_overtaking_waiting_short_fails():
    bad = {"is_short": np.array([True, False, True, False]),
           "arrival": np.array([0.2, 0.5, 1.5, 1.7]),
           "start": np.array([1.0, 2.0, 4.0, 5.0])}
    assert ok(packet_checks(bad)[1])
    assert not ok(packet_checks(bad)[2])


TRACE = """time,event,class,server,queue_len_short,queue_len_long
0.2,arrival,short,,1,0
0.5,arrival,long,,1,1
1,start,short,0,0,1
2,depart,short,0,0,1
2,start,long,0,0,0
4,depart,long,0,0,0
"""


def test_trace_replay_passes_on_valid_trace():
    queue, count, rows = checks.trace_counts(io.StringIO(TRACE), 2)
    assert ok(queue) and ok(count) and rows == 6


def test_trace_with_negative_queue_fails():
    bad = TRACE.replace("1,start,short,0,0,1", "1,start,short,0,-1,1")
    queue, _, _ = checks.trace_counts(io.StringIO(bad), 2)
    assert not ok(queue)


def test_trace_with_missing_events_fails():
    truncated = "\n".join(TRACE.splitlines()[:-1]) + "\n"
    _, count, _ = checks.trace_counts(io.StringIO(truncated), 2)
    assert not ok(count)
    queue, count, _ = checks.trace_counts(io.StringIO(TRACE + "5,start\n"), 2)
    assert not ok(queue)
    queue, count, _ = checks.trace_counts(io.StringIO(""), 2)
    assert not ok(queue) and not ok(count)


def test_slotted_above_paper_fails():
    paper = np.array([1.1, 2.1])
    assert ok(checks.slotted_below_paper(np.array([1.0, 2.0]), paper))
    assert not ok(checks.slotted_below_paper(np.array([1.2, 2.0]), paper))
    assert not ok(checks.slotted_below_paper(np.array([np.nan, 2.0]), paper))


def residual_csv(shift=0.0, swap=False, rows=None):
    y = np.arange(0.0, 10.05, 0.1)
    coupled, decoupled = 1.0 - np.exp(-y), 1.0 - np.exp(-2.0 * y)
    if swap:
        coupled, decoupled = decoupled, coupled
    lines = [",".join(checks.RESIDUAL_HEADER)]
    for row in zip(y, coupled, decoupled, coupled + shift, decoupled):
        lines.append(",".join(format(v, ".9g") for v in row))
    return "\n".join(lines[:rows]) + "\n"


def test_residual_checks_pass_on_closed_form():
    dom, dkw = checks.residual_cdf_checks(residual_csv(), 100_000, 101)
    assert ok(dom) and ok(dkw)


def test_residual_below_coupled_fails():
    dom, _ = checks.residual_cdf_checks(residual_csv(swap=True), 100_000, 101)
    assert not ok(dom)


def test_empirical_outside_dkw_fails():
    _, dkw = checks.residual_cdf_checks(residual_csv(shift=0.05), 100_000, 101)
    assert not ok(dkw)
    assert checks.dkw_eps(100_000) < 0.05


def test_truncated_residual_csv_fails():
    dom, dkw = checks.residual_cdf_checks(residual_csv(rows=50), 100_000, 101)
    assert not ok(dom) and not ok(dkw)


def test_cycle_order():
    good = "topology,mean,p50,p90,p99,p999\ncoupled,14,1,1,1,1\ndecoupled,10.7,1,1,1,1\n"
    swapped = "topology,mean,p50,p90,p99,p999\ncoupled,10.7,1,1,1,1\ndecoupled,14,1,1,1,1\n"
    assert ok(checks.cycle_decoupled_faster(good))
    assert not ok(checks.cycle_decoupled_faster(swapped))
    assert not ok(checks.cycle_decoupled_faster("topology,mean\n"))


def test_tally_counts_failures():
    tally = checks.Tally()
    tally.add("a", (True, ""))
    tally.add("b", (False, "why"))
    assert (tally.attempted, tally.failed, tally.failures) == (2, 1, ["b: why"])


def test_self_time_subtracts_direct_children():
    spans = [(0, -1, "cli.main", "cli", 0.0, 10.0, 1),
             (1, 0, "sim.sweep", "sim", 1.0, 9.0, 1),
             (2, 1, "sim.run", "sim", 2.0, 5.0, 1),
             (3, 1, "sim.run", "sim", 5.0, 8.0, 1)]
    assert self_times(spans) == [2.0, 2.0, 3.0, 3.0]


def test_tracer_sees_cross_layer_calls_and_restores():
    src = str(Path(__file__).resolve().parent.parent / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import tddq
    import tddq.cli

    original = tddq.sim.long_service_moments
    config = tddq.default_scenario().config_for(0.5)
    tracer = Tracer(tddq)
    tracer.install()
    try:
        tddq.analytic.mg1_priority_sojourn(config)
    finally:
        tracer.uninstall()
    assert tddq.sim.long_service_moments is original
    names = [s[2] for s in tracer.spans]
    assert names[0] == "analytic.mg1_priority_sojourn"
    assert "traffic.long_service_moments" in names
    assert all(s[1] == 0 for s in tracer.spans[1:] if s[2] == "traffic.utilization")


def test_host_speed_factor_uses_samples_since_mark():
    speed = HostSpeed()
    speed.samples = [1.0, 1.0]
    mark = speed.mark()
    assert math.isnan(speed.factor(mark))
    speed.samples += [2 * REFERENCE_S, 2 * REFERENCE_S, 4 * REFERENCE_S]
    assert speed.factor(mark) == 0.5 ** SENSITIVITY
    speed.sample(2)
    assert len(speed.samples) == 7 and speed.spent > sum(speed.samples[-2:])
