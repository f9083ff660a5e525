"""Closed-form latency: priority M/G/1, approximate M/G/2, residual-time bounds.

The single-server results are the two-class non-preemptive Pollaczek-Khinchine
means plus a half-slot frame-alignment term. The two-server results combine
Kimura's GI/G/s mean-wait approximation, written out at s = 2 for the
aggregate service mixture (no general-s function is kept), with the Bondi
observation that the priority/FCFS wait ratio carries over from one server
to several. The residual-time model gives the coupled vs decoupled (min of
two servers) CDF and the resulting two-way cycle time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .traffic import TrafficConfig, long_service_moments

__all__ = [
    "SojournPrediction",
    "ResidualModel",
    "mg1_priority_sojourn",
    "mg1_priority_sojourn_slotted",
    "mg2_priority_sojourn",
    "residual_cdf",
    "cycle_time_stats",
]


@dataclass(frozen=True)
class SojournPrediction:
    """Mean sojourn per class, split into wait + transmission + alignment."""

    wait_short: float
    wait_long: float
    service_short: float
    service_long: float
    alignment: float  # half a slot, identical for both classes

    def __post_init__(self) -> None:
        for name in ("wait_short", "wait_long", "service_short", "service_long", "alignment"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def mean_short(self) -> float:
        return self.wait_short + self.service_short + self.alignment

    @property
    def mean_long(self) -> float:
        return self.wait_long + self.service_long + self.alignment


def _moments(config: TrafficConfig):
    """Service moments and (rho, rho_S) from one long-service lookup.

    rho and rho_S use `utilization`'s expressions; its saturation check is
    left out, since a constructed TrafficConfig has already passed it.
    """
    e_s = config.slot
    e_l, e_l2 = long_service_moments(config.channel, config.table)
    rho_s = config.lambda_short * e_s
    rho = rho_s + config.lambda_long * e_l
    return e_s, e_s * e_s, e_l, e_l2, rho, rho_s


def mg1_priority_sojourn(config: TrafficConfig) -> SojournPrediction:
    """Paper form of the coupled (single-server) mean sojourn.

    The continuous-time two-class non-preemptive priority M/G/1 mean plus
    half a slot: the residual-work numerator lam_L*E[S_L^2] + lam_S*E[S_S^2]
    is shared, the short class divides by (1 - rho_S), the long class
    additionally by (1 - rho), and both classes get half a short TTI for
    frame alignment. For the slot-aligned scheduler this overestimates the
    short-class mean by slot*rho_L/(2(1-rho_S)) and underestimates the
    long-class mean by slot*rho_S/(2(1-rho_S)); see
    :func:`mg1_priority_sojourn_slotted` for the boundary-exact means.
    """
    e_s, e_s2, e_l, e_l2, rho, rho_s = _moments(config)
    residual_work = config.lambda_long * e_l2 + config.lambda_short * e_s2
    wait_short = residual_work / (2.0 * (1.0 - rho_s))
    wait_long = residual_work / (2.0 * (1.0 - rho) * (1.0 - rho_s))
    return SojournPrediction(
        wait_short=wait_short,
        wait_long=wait_long,
        service_short=e_s,
        service_long=e_l,
        alignment=e_s / 2.0,
    )


def mg1_priority_sojourn_slotted(config: TrafficConfig) -> SojournPrediction:
    """Boundary-exact mean sojourn for the slotted single-server system.

    :func:`mg1_priority_sojourn` applies the continuous-time priority result
    and adds half a slot for frame alignment, which double counts the partial
    slot of the packet in service: once a packet is aligned to a boundary,
    the in-service long packet of D slots can only present residuals
    D-1, ..., 1 there. Working per boundary gives, in slot units,

        w_S = (l_S + l_L * E[D(D-1)]) / (2 (1 - rho_S))
        w_L = (l_L E[D(D-1)]/2 + rho_L/2 + l_S (1 + w_S)) / (1 - rho)

    which the simulator reproduces to statistical accuracy; the continuous
    form overestimates the short class by rho_L/(2(1-rho_S)) and
    underestimates the long class by rho_S/(2(1-rho_S)).
    """
    e_s, _, e_l, e_l2, rho, rho_s = _moments(config)
    slot = config.slot
    ls = config.lambda_short * slot
    ll = config.lambda_long * slot
    ed = e_l / slot
    ed2 = e_l2 / slot**2
    rho_l = rho - rho_s
    w_s = (ls + ll * (ed2 - ed)) / (2.0 * (1.0 - rho_s))
    w_l = (ll * (ed2 - ed) / 2.0 + rho_l / 2.0 + ls * (1.0 + w_s)) / (1.0 - rho)
    return SojournPrediction(
        wait_short=w_s * slot,
        wait_long=w_l * slot,
        service_short=e_s,
        service_long=e_l,
        alignment=e_s / 2.0,
    )


def mg2_priority_sojourn(config: TrafficConfig) -> SojournPrediction:
    """Mean sojourn in the decoupled (two-server) system, approximated.

    The two queues feed both servers; doubling the traffic over two servers
    keeps the per-server utilization of `config`. The FCFS wait is Kimura's
    GI/G/s mean-wait approximation at s = 2,

        W = (1 + C^2)/2 * rho^(sqrt(6) - 1) * E[S] / (2 (1 - rho)),

    with E[S] and C^2 the mean and squared coefficient of variation of the
    aggregate short/long service mixture; the Bondi ratio then maps it to
    the two priority classes: short x (1-rho)/(1-rho_S), long x 1/(1-rho_S).
    """
    e_s, e_s2, e_l, e_l2, rho, rho_s = _moments(config)
    lam = config.lambda_short + config.lambda_long
    if lam == 0.0:
        return SojournPrediction(0.0, 0.0, e_s, e_l, e_s / 2.0)
    mix_mean = (config.lambda_short * e_s + config.lambda_long * e_l) / lam
    mix_second = (config.lambda_short * e_s2 + config.lambda_long * e_l2) / lam
    scv = mix_second / mix_mean**2 - 1.0
    wait_fcfs = (1.0 + scv) / 2.0 * rho**(math.sqrt(6.0) - 1.0) * mix_mean / (2 * (1.0 - rho))
    return SojournPrediction(
        wait_short=wait_fcfs * (1.0 - rho) / (1.0 - rho_s),
        wait_long=wait_fcfs / (1.0 - rho_s),
        service_short=e_s,
        service_long=e_l,
        alignment=e_s / 2.0,
    )


# ---------------------------------------------------------------------------
# Residual time of the server(s) seen by a top-priority two-way device
# ---------------------------------------------------------------------------

_FAMILIES = ("exponential", "truncated-exponential", "uniform", "empirical")


@dataclass(frozen=True)
class ResidualModel:
    """Per-server residual-time distribution on (0, S_L).

    Families: plain `exponential` (rate), `truncated-exponential` (rate,
    renormalized on (0, s_long_max)), `uniform` on (0, s_long_max), and
    `empirical` (resampled from a fixed sample set).
    """

    family: str
    s_long_max: float
    rate: float | None = None
    samples: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {_FAMILIES}")
        if self.family == "empirical":
            if not self.samples:
                raise ValueError("empirical family needs a non-empty sample set")
            object.__setattr__(self, "samples", tuple(float(x) for x in self.samples))
            if not all(0.0 <= x <= self.s_long_max for x in self.samples):
                raise ValueError(f"residual samples must lie in [0, s_long_max]: {self.samples}")
        if not 0.0 < self.s_long_max < math.inf:
            raise ValueError(f"s_long_max must be positive and finite, got {self.s_long_max}")
        if self.family in ("exponential", "truncated-exponential"):
            if self.rate is None or not 0.0 < self.rate < math.inf:
                raise ValueError(
                    f"{self.family} family needs a positive finite rate, got {self.rate}")

    def cdf(self, y):
        """Single-server residual CDF F_X evaluated at y (scalar or array)."""
        y = np.asarray(y, dtype=float)
        if self.family == "exponential":
            out = 1.0 - np.exp(-self.rate * np.maximum(y, 0.0))
        elif self.family == "truncated-exponential":
            # the same exp as the numerator, so that F(s_long_max) is exactly 1
            norm = 1.0 - np.exp(-self.rate * self.s_long_max)
            out = (1.0 - np.exp(-self.rate * np.clip(y, 0.0, self.s_long_max))) / norm
        elif self.family == "uniform":
            out = np.clip(y / self.s_long_max, 0.0, 1.0)
        else:  # empirical
            xs = np.sort(np.asarray(self.samples))
            out = np.searchsorted(xs, y, side="right") / len(xs)
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw residuals via inverse CDF on uniforms from the passed stream.

        The uniforms are transformed in place, with the float operations of
        -log1p(-u*norm)/rate and u*s_long_max in their order, so the result
        is a fresh array that the caller owns and may modify (a float64
        scalar when `size` is None).
        """
        u = np.asarray(rng.random(size))
        if self.family in ("exponential", "truncated-exponential"):
            if self.family == "truncated-exponential":
                u *= 1.0 - math.exp(-self.rate * self.s_long_max)
            np.negative(u, out=u)
            np.log1p(u, out=u)
            np.negative(u, out=u)
            u /= self.rate
        elif self.family == "uniform":
            u *= self.s_long_max
        else:  # empirical
            u *= len(self.samples)
            u = np.asarray(self.samples)[u.astype(np.int64)]
        return u if u.ndim else u[()]


def residual_cdf(model: ResidualModel, y, decoupled: bool):
    """Residual-time CDF seen by the device.

    Coupled access waits out one server's residual, F_X(y). Decoupled access
    takes the faster of two independent servers, 1 - (1 - F_X(y))^2; for the
    exponential family this is 1 - exp(-2*rate*y).
    """
    f = model.cdf(y)
    if not decoupled:
        return f
    g = 1.0 - (1.0 - np.asarray(f)) ** 2
    return g if g.ndim else float(g)


def cycle_time_stats(
    residual: ResidualModel, s_short: float, t_proc: float, decoupled: bool,
    n_samples: int, rng: np.random.Generator,
) -> tuple[float, np.ndarray]:
    """Monte Carlo cycle times of a top-priority two-way device.

    One cycle is 2*s_short + t_proc plus one residual per direction: each
    TTI first waits out the residual time of the serving side. The two
    directions draw independent residuals; decoupled access replaces each
    draw with the min of two independent server draws.
    Returns (mean, samples), where samples is a fresh array that the caller
    owns (`cycle-time` sorts it in place for its quantiles); raises
    ValueError when they are not finite.
    """
    if not 0.0 < s_short < math.inf:
        raise ValueError(f"s_short must be positive and finite, got {s_short}")
    if not 0.0 <= t_proc < math.inf:
        raise ValueError(f"t_proc must be finite and >= 0, got {t_proc}")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    with np.errstate(over="ignore"):  # reported below as a non-finite mean
        if decoupled:
            res_a = np.minimum(*residual.sample(rng, (n_samples, 2)).T)
            res_b = np.minimum(*residual.sample(rng, (n_samples, 2)).T)
        else:
            res_a = residual.sample(rng, n_samples)
            res_b = residual.sample(rng, n_samples)
        # (2*s_short + t_proc) + res_a + res_b, summed into res_a
        samples = res_a
        samples += 2.0 * s_short + t_proc
        samples += res_b
        mean = float(samples.mean())
    if not math.isfinite(mean):  # samples are >= 0, so any inf or NaN one shows in the mean
        raise ValueError(f"cycle-time samples or their mean are not finite (mean {mean})")
    return mean, samples
