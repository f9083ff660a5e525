"""The benchmark workloads.

All three are closed loops with one caller: this process calls the package,
waits for the result, then makes the next call. Every input comes from the
pass seed the runner hands in. A pass is the workload's fixed unit of work;
the runner repeats passes until its time is up and reports medians.

fig3-sweep     `tddq sojourn-sweep` over experiments/fig3.cfg: 9 rho points
               x 2 topologies x 200 k departures. The paper's headline
               figure. Heavy: sim (scheduling loop, scalar RNG, SNR->TTI
               lookup). Idle: traffic and analytic (<1%), cli (CSV only).
trace-packets  one `run()` at rho=0.7, decoupled, fig3 channel, with
               `keep_packets=True` and a trace file. Heavy: sim output path
               (Packet objects, buffered event list, its sort, CSV writer).
               Idle: traffic, analytic, cli.
closed-form    1024 seeded rho points of the fig3 scenario, each
               `config_for` + `mg1_priority_sojourn` +
               `mg1_priority_sojourn_slotted` + `mg2_priority_sojourn`, plus
               the `residual-cdf` and `cycle-time` commands for all four
               residual families. Heavy: traffic (service moments), analytic,
               cli (residual-cdf grid loop). Idle: sim (never called).
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from hostspeed import HostSpeed
from tracer import probe

FIG3_HORIZON = 200_000
TRACE_RHO = 0.7
TRACE_HORIZON = 200_000
CLOSED_POINTS = 1024
RHO_RANGE = (0.001, 0.999)
FAMILIES = ("exponential", "truncated-exponential", "uniform", "empirical")
S_LONG = 10.0
MC_SAMPLES = 100_000  # the CLI default, passed explicitly so the work is fixed
N_EMPIRICAL = 16
TRACE_SAMPLES = 8  # calibration samples before and after the trace run
SAMPLE_EVERY = 128  # closed-form load points between calibration samples


@dataclass
class Context:
    tddq: object  # the imported package, with .traffic/.analytic/.sim/.cli
    fig3_cfg: str
    scenario: object  # the fig3 Scenario
    tmp: Path
    speed: HostSpeed
    tracer: object = None  # set during a traced pass

    def next_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op += 1


@dataclass
class Pass:
    """What one pass measured, plus the outputs its checks need.

    Times are host times with the calibration samples left out; `speed` is
    the pass's host-speed factor (see hostspeed.py).
    """

    wall: float  # seconds of the timed section
    work: float  # departures simulated, or closed-form load points
    work_time: float  # seconds over which `work` was done
    ops_ms: list[float]
    attempted: int
    failed: int
    speed: float
    outputs: dict = field(default_factory=dict)


def _report(exc: BaseException) -> None:
    traceback.print_exception(exc, file=sys.stderr)


def _cli(ctx: Context, argv: list[str]) -> int:
    """One CLI call; an exception counts like a nonzero exit."""
    try:
        return ctx.tddq.cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - the benchmark keeps running
        _report(exc)
        return -1


# ---------------------------------------------------------------------------

def fig3_pass(ctx: Context, seed: int) -> Pass:
    out = ctx.tmp / "fig3.csv"
    run_ms: list[float] = []
    points: list = []

    def timed(run):
        def wrapper(*args, **kwargs):
            if ctx.tracer is None:  # in a traced pass it would land in sim.sweep's span
                ctx.speed.sample()
            t0 = perf_counter()
            try:
                return run(*args, **kwargs)
            finally:
                run_ms.append((perf_counter() - t0) * 1e3)
        return wrapper

    def captured(sweep):
        def wrapper(*args, **kwargs):
            result = sweep(*args, **kwargs)
            points.extend((args[1].value, p) for p in result)
            return result
        return wrapper

    argv = ["sojourn-sweep", "--config", ctx.fig3_cfg, "--horizon", str(FIG3_HORIZON),
            "--seed", str(seed), "--out", str(out)]
    ctx.next_op()
    mark = ctx.speed.mark()
    with probe(ctx.tddq.sim, "run", timed), probe(ctx.tddq.cli, "sweep", captured):
        t0 = perf_counter()
        code = _cli(ctx, argv)
        wall = perf_counter() - t0 - (ctx.speed.spent - mark[1])
    attempted = 2 * len(ctx.scenario.rho_list)
    ok = sum(1 for _, p in points if p.summary is not None and p.error is None)
    failed = attempted if code != 0 else max(0, attempted - ok)
    return Pass(wall, FIG3_HORIZON * len(run_ms), wall, run_ms, attempted, failed,
                ctx.speed.factor(mark), {"csv": out, "points": points})


def fig3_check(ctx: Context, p: Pass, tally: checks.Tally) -> dict:
    text = p.outputs["csv"].read_text() if p.outputs["csv"].exists() else ""
    analytic = ctx.tddq.analytic
    rhos = ctx.scenario.rho_list
    exact, approx = {}, {}
    for rho in rhos:
        config = ctx.scenario.config_for(rho)
        s = analytic.mg1_priority_sojourn_slotted(config)
        d = analytic.mg2_priority_sojourn(config)
        exact[(rho, "short")], exact[(rho, "long")] = s.mean_short, s.mean_long
        approx[(rho, "short")], approx[(rho, "long")] = d.mean_short, d.mean_long
    tally.add("fig3.csv_shape", checks.sweep_csv_shape(text, len(rhos)))
    tally.add("fig3.csv_errors", checks.sweep_csv_errors_empty(text))
    tally.add("fig3.coupled_vs_slotted", checks.coupled_matches_slotted(text, exact))
    tally.add("fig3.decoupled_band", checks.decoupled_within_band(text, approx))
    # one entry per expected run; a run the probe did not see reads as NaN
    got = {(topo, pt.rho): pt.summary for topo, pt in p.outputs["points"]}
    summaries = [got.get((topo, rho)) for topo in ("coupled", "decoupled") for rho in rhos]
    nan = float("nan")
    tally.add("fig3.littles_law", checks.littles_law(
        [s.little_residual if s else nan for s in summaries]))
    tally.add("fig3.busy_fraction", checks.busy_fraction(
        [(rho, s.mean_busy_fraction if s else nan)
         for s, rho in zip(summaries, list(rhos) * 2)]))
    return {"cli.csv_rows": max(0, text.count("\n") - 1)}


# ---------------------------------------------------------------------------

def trace_pass(ctx: Context, seed: int) -> Pass:
    sim = ctx.tddq.sim
    config = ctx.scenario.config_for(TRACE_RHO)
    path = ctx.tmp / "trace.csv"
    ctx.next_op()
    mark = ctx.speed.mark()
    ctx.speed.sample(TRACE_SAMPLES)
    t0 = perf_counter()
    try:
        summary = sim.run(config, sim.Topology.DECOUPLED, TRACE_HORIZON, seed=seed,
                          keep_packets=True, trace_path=str(path))
    except Exception as exc:  # noqa: BLE001 - counted as a failed operation
        _report(exc)
        summary = None
    wall = perf_counter() - t0
    ctx.speed.sample(TRACE_SAMPLES)
    failed = 0 if summary is not None else 1
    return Pass(wall, TRACE_HORIZON * (1 - failed), wall, [wall * 1e3], 1, failed,
                ctx.speed.factor(mark),
                {"summary": summary, "trace": path, "slot": config.slot})


def trace_check(ctx: Context, p: Pass, tally: checks.Tally) -> dict:
    # drop the packets once they are arrays, so the checks do not raise the
    # process's peak memory above the run's own
    summary = p.outputs.pop("summary")
    packets = summary.packets if summary is not None and summary.packets else ()
    del summary
    n = len(packets)
    is_short = np.fromiter((q.kind == "short" for q in packets), dtype=bool, count=n)
    arrival = np.fromiter((q.arrival_time for q in packets), dtype=float, count=n)
    start = np.fromiter((q.start_time for q in packets), dtype=float, count=n)
    del packets
    tally.add("trace.packet_count", checks.packet_count(n, TRACE_HORIZON))
    tally.add("trace.slot_grid", checks.starts_on_slot_grid(start, p.outputs["slot"]))
    tally.add("trace.fifo", checks.fifo_within_class(is_short, arrival, start))
    tally.add("trace.priority", checks.short_before_long(is_short, arrival, start))
    path = p.outputs["trace"]
    if path.exists():
        with open(path, newline="", encoding="utf-8") as fh:
            queue, count, _rows = checks.trace_counts(fh, TRACE_HORIZON)
    else:
        queue, count, _rows = checks.trace_counts([], TRACE_HORIZON)
    tally.add("trace.queue_nonnegative", queue)
    tally.add("trace.event_counts", count)
    return {}


# ---------------------------------------------------------------------------

def closed_pass(ctx: Context, seed: int) -> Pass:
    rng = np.random.default_rng(seed)
    grid = rng.uniform(*RHO_RANGE, CLOSED_POINTS).tolist()
    rate = float(rng.uniform(0.2, 2.0))
    empirical = ",".join(format(x, ".6g") for x in rng.uniform(0.0, S_LONG, N_EMPIRICAL))
    analytic = ctx.tddq.analytic
    config_for = ctx.scenario.config_for
    mg1 = analytic.mg1_priority_sojourn
    slotted = analytic.mg1_priority_sojourn_slotted
    mg2 = analytic.mg2_priority_sojourn
    paper = np.full(CLOSED_POINTS, np.nan)
    exact = np.full(CLOSED_POINTS, np.nan)
    ops_ms: list[float] = []
    failed = 0

    mark = ctx.speed.mark()
    t_start = perf_counter()
    for i, rho in enumerate(grid):
        if i % SAMPLE_EVERY == 0:
            ctx.speed.sample()
        ctx.next_op()
        t0 = perf_counter()
        try:
            config = config_for(rho)
            paper[i] = mg1(config).mean_short
            exact[i] = slotted(config).mean_short
            mg2(config)
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            _report(exc)
            failed += 1
        ops_ms.append((perf_counter() - t0) * 1e3)
    grid_time = perf_counter() - t_start - (ctx.speed.spent - mark[1])

    outs = {}
    for family in FAMILIES:
        flags = ["--family", family, "--rate", repr(rate), "--s-long", repr(S_LONG),
                 "--samples", str(MC_SAMPLES), "--seed", str(seed)]
        if family == "empirical":
            flags += ["--empirical-samples", empirical]
        for command in ("residual-cdf", "cycle-time"):
            out = ctx.tmp / f"{command}-{family}.csv"
            ctx.speed.sample()
            ctx.next_op()
            if _cli(ctx, [command, *flags, "--out", str(out)]) != 0:
                failed += 1
            outs[(command, family)] = out
    wall = perf_counter() - t_start - (ctx.speed.spent - mark[1])
    return Pass(wall, CLOSED_POINTS, grid_time, ops_ms,
                CLOSED_POINTS + 2 * len(FAMILIES), failed, ctx.speed.factor(mark),
                {"paper": paper, "exact": exact, "csv": outs})


def closed_check(ctx: Context, p: Pass, tally: checks.Tally) -> dict:
    tally.add("closed.slotted_below_paper",
              checks.slotted_below_paper(p.outputs["exact"], p.outputs["paper"]))
    n_grid = len(np.arange(0.0, S_LONG + 0.05, 0.1))  # the CLI's default grid step
    rows = 0
    for (command, family), path in p.outputs["csv"].items():
        text = path.read_text() if path.exists() else ""
        rows += max(0, text.count("\n") - 1)
        if command == "residual-cdf":
            dom, dkw = checks.residual_cdf_checks(text, MC_SAMPLES, n_grid)
            tally.add(f"closed.{family}.dominance", dom)
            tally.add(f"closed.{family}.dkw", dkw)
        else:
            tally.add(f"closed.{family}.cycle_order", checks.cycle_decoupled_faster(text))
    return {"cli.csv_rows": rows}


@dataclass(frozen=True)
class Workload:
    name: str
    run_pass: object
    check: object


WORKLOADS = {w.name: w for w in (
    Workload("fig3-sweep", fig3_pass, fig3_check),
    Workload("trace-packets", trace_pass, trace_check),
    Workload("closed-form", closed_pass, closed_check),
)}
