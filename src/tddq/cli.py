"""Command-line experiment runner.

Four subcommands, each declared once in `_build_parser` with its handler,
wire scenario files to the analytic formulas and the simulator and emit
plotter-agnostic CSV: mean sojourn vs utilization (coupled and decoupled,
analytic and simulated side by side), the coupled vs min-of-two
residual-time CDF (closed form and Monte Carlo), the two-way cycle time's
mean and tail quantiles, and a quick oracle/invariant self-check.

Exit codes: 0 success, 1 failed validation check, 2 bad input.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from contextlib import nullcontext
from dataclasses import replace

import numpy as np

from .analytic import (
    _FAMILIES,
    ResidualModel,
    cycle_time_stats,
    mg1_priority_sojourn,
    mg2_priority_sojourn,
    residual_cdf,
)
from .sim import Topology, run, sweep
from .traffic import (
    ChannelModel,
    RateAdaptationTable,
    Scenario,
    TrafficConfig,
    default_scenario,
    load_scenario,
    long_service_moments,
    region_probabilities,
)

__all__ = ["main"]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return ""
    if isinstance(x, float):
        return format(x, ".9g")
    return str(x)


def _open_out(path: str):
    if path == "-":
        return nullcontext(sys.stdout)
    return open(path, "w", newline="", encoding="utf-8")


def _residual_model(args: argparse.Namespace) -> ResidualModel:
    return ResidualModel(args.family, args.s_long, rate=args.rate,
                         samples=args.empirical_samples)


def _scenario(args: argparse.Namespace) -> Scenario:
    """The --config scenario (or the built-in one) with --rho applied; load
    points are kept as given, in range or not."""
    scenario = load_scenario(args.config) if args.config else default_scenario()
    return scenario if args.rho is None else replace(scenario, rho_list=args.rho)


def _sojourn_sweep(args: argparse.Namespace) -> int:
    """Sweep utilization; one row per (rho, topology, class)."""
    if args.warmup is not None and args.warmup >= args.horizon:
        raise ValueError(f"--warmup ({args.warmup}) must be below --horizon ({args.horizon})")
    scenario = _scenario(args)
    for rho in scenario.rho_list:
        if not (0.0 < rho < 1.0):
            raise ValueError(f"rho values must lie in (0, 1), got {rho}")
    header = ["rho", "class", "topology", "count", "analytic_mean",
              "sim_mean", "sim_ci95", "rel_err", "error"]
    # point by point, coupled then decoupled: the decoupled run takes the
    # coupled run's draws (same seed, per-server arrivals) instead of drawing,
    # and the next point draws into the blocks the allocator took back
    points = [
        (topo, *sweep(scenario, topo, [rho], args.horizon, args.warmup,
                      seed_base=args.seed + i))
        for i, rho in enumerate(scenario.rho_list)
        for topo in (Topology.COUPLED, Topology.DECOUPLED)
    ]
    with _open_out(args.out) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for topo, point in points:
            rho = point.rho
            analytic = {"short": None, "long": None}
            if point.summary:
                predict = (mg1_priority_sojourn if topo is Topology.COUPLED
                           else mg2_priority_sojourn)(scenario.config_for(rho))
                analytic = {"short": predict.mean_short, "long": predict.mean_long}
            for kind in ("short", "long"):
                stats = getattr(point.summary, kind) if point.summary else None
                sim_mean = stats.mean if stats and stats.count else None
                sim_ci = stats.ci95 if stats and stats.count else None
                ana = analytic[kind]
                rel = (abs(sim_mean - ana) / ana
                       if sim_mean is not None and ana else None)
                w.writerow([
                    _fmt(rho), kind, topo.value,
                    _fmt(stats.count if stats else None),
                    _fmt(ana), _fmt(sim_mean), _fmt(sim_ci), _fmt(rel),
                    point.error or "",
                ])
    return 0


_MAX_GRID_ROWS = 10**7


def _residual_cdf(args: argparse.Namespace) -> int:
    """Residual-time CDF on a y grid over (0, S_L), closed form and empirical.

    Each column is computed over the whole grid before `--out` is opened.
    """
    if not 0 < args.grid_step < math.inf:
        raise ValueError(f"--grid-step must be finite and > 0, got {args.grid_step}")
    model = _residual_model(args)
    if args.s_long / args.grid_step > _MAX_GRID_ROWS:
        raise ValueError(f"--grid-step {args.grid_step} gives more than {_MAX_GRID_ROWS} "
                         f"grid rows up to --s-long {args.s_long}")
    n = args.samples
    rng = np.random.default_rng(args.seed)
    draws = (model.sample(rng, n), np.minimum(*model.sample(rng, (n, 2)).T))
    for d in draws:
        d.sort()
    grid = np.arange(0.0, args.s_long + args.grid_step / 2, args.grid_step)
    columns = [
        grid,
        residual_cdf(model, grid, decoupled=False),
        residual_cdf(model, grid, decoupled=True),
        *(np.searchsorted(d, grid, side="right") / n for d in draws),
    ]
    with _open_out(args.out) as fh:
        w = csv.writer(fh)
        w.writerow(["y", "cdf_coupled", "cdf_decoupled",
                    "empirical_coupled", "empirical_decoupled"])
        for row in zip(*columns):
            w.writerow([_fmt(float(v)) for v in row])
    return 0


def _cycle_time(args: argparse.Namespace) -> int:
    """Cycle-time mean and tail quantiles for both access modes."""
    model = _residual_model(args)
    rng = np.random.default_rng(args.seed)
    rows = []
    for topo in (Topology.COUPLED, Topology.DECOUPLED):
        mean, samples = cycle_time_stats(model, args.s_short, args.t_proc,
                                         topo is Topology.DECOUPLED, args.samples, rng)
        samples.sort()  # the quantiles are those of the unsorted draws, found faster
        q = np.quantile(samples, [0.5, 0.9, 0.99, 0.999])
        rows.append([topo.value, mean, *map(float, q)])
    with _open_out(args.out) as fh:
        w = csv.writer(fh)
        w.writerow(["topology", "mean", "p50", "p90", "p99", "p999"])
        for row in rows:
            w.writerow([row[0]] + [_fmt(v) for v in row[1:]])
    return 0


def _worst_normalization_error(rng: np.random.Generator) -> float:
    """Largest |sum p - 1| of region_probabilities over 1000 random tables.

    Each table has 1-6 regions with random thresholds, rates and mean SNR,
    all drawn from `rng` in a fixed order.
    """
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(1, 7))
        inner = np.sort(rng.uniform(0.1, 50.0, size=m - 1))
        rates = np.sort(rng.uniform(0.05, 5.0, size=m))
        table = RateAdaptationTable(
            thresholds=(0.0, *map(float, inner), math.inf),
            rates=tuple(map(float, rates)),
        )
        channel = ChannelModel(mean_snr=float(rng.uniform(0.05, 50.0)))
        worst = max(worst, abs(float(region_probabilities(channel, table).sum()) - 1.0))
    return worst


def _check_stability(s: Scenario) -> tuple[bool, str]:
    for rho in s.rho_list:
        try:
            s.config_for(rho)
        except ValueError as exc:
            return False, f"rho={rho}: {exc}"
    return True, f"{len(s.rho_list)} load points stable"


_MM1_HALF_WIDTHS = 2.0  # ~4 standard errors of the batch-means mean
_LITTLE_TOL = 0.01


def _check_mm1(args: argparse.Namespace) -> tuple[bool, str]:
    """M/M/1 mean sojourn within _MM1_HALF_WIDTHS of the run's ci95 half widths of 2.0.

    The bound follows the run length, as the busy check's does; a NaN ci95
    (too few sojourns for the batch means) fails.
    """
    table = RateAdaptationTable(thresholds=(0.0, math.inf), rates=(1.0,))
    config = TrafficConfig(
        lambda_short=0.5, lambda_long=0.0, mu_short=1.0,
        channel=ChannelModel(1.0), table=table,
    )
    summary = run(config, Topology.COUPLED, args.horizon, seed=args.seed, mode="exponential")
    mean, ci95 = summary.short.mean, summary.short.ci95
    z = (mean - 2.0) / ci95  # in ci95 half widths; NaN fails the bound
    return abs(z) <= _MM1_HALF_WIDTHS, (
        f"mean sojourn {mean:.4f} vs 2.0, ci95 {ci95:.4f}: z = {z:+.2f} half widths "
        f"(tol {_MM1_HALF_WIDTHS:g})")


def _check_conservation(s: Scenario, args: argparse.Namespace) -> tuple[bool, str]:
    """Little's law, and the busy fraction within 4 sigma of rho.

    sigma is the standard deviation of the work that Poisson arrivals bring
    in over the measurement window, per unit time:
    sqrt((lambda_S E[S_S^2] + lambda_L E[S_L^2]) / T).
    """
    rho = 0.7 if not s.rho_list else min(s.rho_list, key=lambda r: abs(r - 0.7))
    try:
        config = s.config_for(rho)
    except ValueError as exc:
        return False, f"rho={rho}: {exc}"
    summary = run(config, Topology.COUPLED, args.horizon, seed=args.seed)
    little = summary.little_residual
    busy_err = abs(summary.busy_fraction[0] - rho)
    work_rate_var = (config.lambda_short * (config.slot * config.slot)
                     + config.lambda_long * long_service_moments(config.channel, config.table)[1])
    span = summary.measurement_time
    busy_tol = 4.0 * math.sqrt(work_rate_var / span) if span > 0 else math.nan
    ok = little < _LITTLE_TOL and busy_err <= busy_tol
    return ok, (f"rho={rho:g}: little residual {little:.4f} (tol {_LITTLE_TOL:g}), "
                f"|busy - rho| = {busy_err:.4f} (tol {busy_tol:.4f})")


def _check_dominance() -> tuple[bool, str]:
    families = [
        ResidualModel("exponential", 10.0, rate=1.0),
        ResidualModel("truncated-exponential", 10.0, rate=0.5),
        ResidualModel("uniform", 10.0),
        ResidualModel("empirical", 10.0, samples=(0.5, 1.0, 2.5, 4.0, 9.5)),
    ]
    grid = np.linspace(0.0, 12.0, 241)
    for model in families:
        coupled = np.asarray(residual_cdf(model, grid, decoupled=False))
        decoupled = np.asarray(residual_cdf(model, grid, decoupled=True))
        if not (np.all(decoupled >= coupled - 1e-12)
                and np.all(np.diff(coupled) >= -1e-12)
                and np.all(np.diff(decoupled) >= -1e-12)
                and np.all((coupled >= 0) & (coupled <= 1))
                and np.all((decoupled >= 0) & (decoupled <= 1))):
            return False, f"dominance violated for family {model.family}"
    return True, f"{len(families)} families dominate pointwise"


def _validate(args: argparse.Namespace) -> int:
    """Run the oracle/invariant suite; exit 1 if any check fails."""
    scenario = _scenario(args)
    worst_norm = _worst_normalization_error(np.random.default_rng(args.seed))
    checks = [
        ("region-prob-normalization", worst_norm <= 1e-12,
         f"max |sum p - 1| = {worst_norm:.3g}"),
        ("load-points-stable", *_check_stability(scenario)),
        ("mm1-sanity", *_check_mm1(args)),
        ("littles-law-and-busy", *_check_conservation(scenario, args)),
        ("residual-dominance", *_check_dominance()),
    ]
    width = max(len(name) for name, _, _ in checks)
    failed = sum(1 for _, ok, _ in checks if not ok)
    with _open_out(args.out) as fh:
        for name, ok, detail in checks:
            print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}", file=fh)
        print(f"{failed} of {len(checks)} checks failed" if failed
              else f"all {len(checks)} checks passed", file=fh)
    return 1 if failed else 0


def _float_list(text: str) -> tuple[float, ...]:
    """argparse type for a comma list of numbers ('' is the empty list)."""
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of numbers, got {text!r}") from None


def _int_at_least(low: int):
    """argparse type for an integer of at least `low`."""
    def parse(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {n}")
        return n
    return parse


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default="-", help="output path ('-' for stdout)")
    p.add_argument("--seed", type=_int_at_least(0), default=12345)


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="scenario file (key = value lines)")
    p.add_argument("--rho", type=_float_list,
                   help="comma list overriding the scenario load points")
    p.add_argument("--horizon", type=_int_at_least(1), default=200_000,
                   help="departures per simulation run")


def _add_residual_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", default="exponential", choices=_FAMILIES)
    p.add_argument("--rate", type=float, default=1.0, help="exponential rate")
    p.add_argument("--s-long", dest="s_long", type=float, default=10.0,
                   help="longest TTI bounding the residual support")
    p.add_argument("--empirical-samples", dest="empirical_samples", type=_float_list,
                   default=(), help="comma list of residual samples (family=empirical)")
    p.add_argument("--samples", type=_int_at_least(1), default=100_000,
                   help="Monte Carlo sample count")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tddq",
        description="Latency of coupled vs decoupled access under flexible TDD",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sojourn-sweep", help="mean sojourn vs utilization")
    _add_common(p)
    _add_scenario_flags(p)
    p.add_argument("--warmup", type=_int_at_least(0), default=None,
                   help="departures discarded (default 10%% of horizon)")
    p.set_defaults(handler=_sojourn_sweep)

    p = sub.add_parser("residual-cdf", help="coupled vs min-of-two residual CDF")
    _add_common(p)
    _add_residual_flags(p)
    p.add_argument("--grid-step", dest="grid_step", type=float, default=0.1)
    p.set_defaults(handler=_residual_cdf)

    p = sub.add_parser("cycle-time", help="two-way cycle time quantiles")
    _add_common(p)
    _add_residual_flags(p)
    p.add_argument("--s-short", dest="s_short", type=float, default=1.0)
    p.add_argument("--t-proc", dest="t_proc", type=float, default=2.0)
    p.set_defaults(handler=_cycle_time)

    p = sub.add_parser("validate", help="oracle/invariant self-check")
    _add_common(p)
    _add_scenario_flags(p)
    p.set_defaults(handler=_validate)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
