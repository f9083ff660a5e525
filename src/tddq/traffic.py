"""Traffic mix, block-Rayleigh channel and discrete rate adaptation.

Two packet classes share the medium: short fixed-TTI packets (deterministic
service at rate mu_short, the TTI S_S = 1/mu_short is also the slot length)
and long packets whose TTI depends on the instantaneous SNR through a
threshold table. Everything downstream (closed-form sojourn times and the
event simulator) consumes the service moments and utilizations computed here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SaturationError",
    "ChannelModel",
    "RateAdaptationTable",
    "TrafficConfig",
    "Scenario",
    "default_scenario",
    "region_probabilities",
    "long_service_moments",
    "utilization",
    "sample_long_services",
    "parse_scenario",
    "load_scenario",
]

# relative slack when checking that a TTI is a whole number of slots
_SLOT_ALIGN_RTOL = 1e-9


class SaturationError(ValueError):
    """Offered load is at or above capacity (rho >= 1 per server)."""


def _db_to_linear(x_db: float, name: str) -> float:
    try:
        return 10.0 ** (x_db / 10.0)
    except OverflowError:
        raise ValueError(f"{name} {x_db} dB is too large for a float") from None


@dataclass(frozen=True)
class ChannelModel:
    """Block Rayleigh fading channel, parameterized only by its mean SNR.

    The instantaneous SNR is exponentially distributed with mean `mean_snr`
    (linear scale). Use :meth:`from_db` when the mean is given in dB.
    """

    mean_snr: float

    def __post_init__(self) -> None:
        if not (self.mean_snr > 0.0) or not math.isfinite(self.mean_snr):
            raise ValueError(f"mean_snr must be positive and finite, got {self.mean_snr}")

    @classmethod
    def from_db(cls, mean_snr_db: float) -> "ChannelModel":
        return cls(mean_snr=_db_to_linear(mean_snr_db, "mean_snr_db"))


@dataclass(frozen=True)
class RateAdaptationTable:
    """SNR regions and the long-packet service rate used inside each region.

    `thresholds` holds the M+1 region boundaries in linear scale, starting at
    0 and ending at +inf; region i (1-based) is (thresholds[i-1], thresholds[i]].
    `rates` holds one service rate per region, non-decreasing because a better
    channel never transmits slower.
    """

    thresholds: tuple[float, ...]
    rates: tuple[float, ...]

    def __post_init__(self) -> None:
        thresholds = tuple(float(t) for t in self.thresholds)
        rates = tuple(float(r) for r in self.rates)
        object.__setattr__(self, "thresholds", thresholds)
        object.__setattr__(self, "rates", rates)
        if len(thresholds) < 2:
            raise ValueError("need at least one region (two thresholds)")
        if any(math.isnan(t) for t in thresholds):
            raise ValueError(f"thresholds must not be NaN: {thresholds}")
        if thresholds[0] != 0.0:
            raise ValueError(f"first threshold must be 0, got {thresholds[0]}")
        if not math.isinf(thresholds[-1]):
            raise ValueError(f"last threshold must be +inf, got {thresholds[-1]}")
        if any(a >= b for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError(f"thresholds must be strictly increasing: {thresholds}")
        if len(rates) != len(thresholds) - 1:
            raise ValueError(
                f"{len(rates)} rates for {len(thresholds) - 1} regions"
            )
        if not all(0.0 < r < math.inf for r in rates):
            raise ValueError(f"rates must be positive and finite: {rates}")
        if not all(r * r > 0.0 and 1.0 / (r * r) < math.inf for r in rates):
            raise ValueError(f"rates must be large enough that 1/rate**2 is finite: {rates}")
        if any(a > b for a, b in zip(rates, rates[1:])):
            raise ValueError(
                f"rates must be non-decreasing with channel quality: {rates}"
            )

    @classmethod
    def from_tti_durations(
        cls,
        thresholds_db: list[float] | tuple[float, ...],
        durations: list[float] | tuple[float, ...],
    ) -> "RateAdaptationTable":
        """Build from the interior thresholds in dB (0 and +inf are implied)
        and per-region TTI durations (region order: worst SNR first).

        Durations must be non-increasing: the region above the last threshold
        gets the shortest TTI.
        """
        if not all(0.0 < d < math.inf for d in durations):
            raise ValueError(
                f"long TTI durations must be positive and finite: {tuple(durations)}")
        inner = tuple(_db_to_linear(t, "thresholds_db") for t in thresholds_db)
        return cls(thresholds=(0.0, *inner, math.inf), rates=tuple(1.0 / d for d in durations))

    @property
    def durations(self) -> tuple[float, ...]:
        return tuple(1.0 / r for r in self.rates)


def region_probabilities(channel: ChannelModel, table: RateAdaptationTable) -> np.ndarray:
    """Probability of landing in each SNR region under Rayleigh fading.

    p_i = exp(-G_{i-1}/mean) - exp(-G_i/mean); the probabilities sum to 1.
    """
    g = np.asarray(table.thresholds, dtype=float)
    tail = np.exp(-g / channel.mean_snr)  # exp(-inf) -> 0 for the open last region
    return tail[:-1] - tail[1:]


def long_service_moments(channel: ChannelModel, table: RateAdaptationTable) -> tuple[float, float]:
    """First and second moment of the long-packet service time.

    Computed once per (channel, table): both are frozen, so equal pairs
    share one cached result.
    """
    return _long_service_moments(channel, table)


@functools.lru_cache
def _long_service_moments(channel: ChannelModel, table: RateAdaptationTable) -> tuple[float, float]:
    p = region_probabilities(channel, table)
    mu = np.asarray(table.rates, dtype=float)
    first = float(np.sum(p / mu))
    second = float(np.sum(p / mu**2))
    return first, second


def _check_mu_short(mu_short: float) -> None:
    if not 0.0 < mu_short < math.inf:
        raise ValueError(f"mu_short must be positive and finite, got {mu_short}")
    if 1.0 / mu_short == math.inf:
        raise ValueError(f"mu_short {mu_short} makes the slot 1/mu_short overflow")


@functools.lru_cache
def _check_slot_alignment(table: RateAdaptationTable, slot: float) -> None:
    """Reject a long TTI that is not a whole number of slots.

    Run once per (table, slot), as the moments are: a `Scenario` and every
    config it builds share one check. A failure is not cached, so it raises
    again, with the same message, on every call.
    """
    for d in table.durations:
        k = d / slot
        # k must round to at least one slot, and round(k) fails at inf
        if not 0.5 < k < math.inf or abs(k - round(k)) > _SLOT_ALIGN_RTOL * max(1.0, k):
            raise ValueError(
                f"long TTI {d} is not a whole number of slots (slot={slot})"
            )


@dataclass(frozen=True)
class TrafficConfig:
    """Arrival rates, short-TTI service and the long-packet rate model.

    The config always stores the per-server (coupled-reference) arrival
    rates; the two-server decoupled topology doubles them internally, which
    leaves the per-server utilization unchanged. Construction rejects
    saturated (rho >= 1) and slot-misaligned settings.
    """

    lambda_short: float
    lambda_long: float
    mu_short: float
    channel: ChannelModel
    table: RateAdaptationTable

    def __post_init__(self) -> None:
        for name, rate in (("lambda_short", self.lambda_short),
                           ("lambda_long", self.lambda_long)):
            if not 0.0 <= rate < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {rate}")
        _check_mu_short(self.mu_short)
        _check_slot_alignment(self.table, self.slot)
        utilization(self)  # rejects saturated settings up front

    @property
    def slot(self) -> float:
        """Slot length = short TTI = 1/mu_short."""
        return 1.0 / self.mu_short


def utilization(config: TrafficConfig) -> tuple[float, float, float]:
    """Per-server utilization split (rho, rho_short, rho_long).

    Raises SaturationError when rho >= 1; stable callers never see that from
    a constructed TrafficConfig, which validates at build time.
    """
    e_l, _ = long_service_moments(config.channel, config.table)
    rho_s = config.lambda_short * config.slot
    rho_l = config.lambda_long * e_l
    rho = rho_s + rho_l
    if rho >= 1.0:
        raise SaturationError(f"utilization {rho:.6g} >= 1")
    return rho, rho_s, rho_l


def sample_long_services(
    channel: ChannelModel, table: RateAdaptationTable, rng: np.random.Generator, n: int
) -> np.ndarray:
    """Draw `n` long-packet service times.

    Exponential SNR draws from the passed stream, then the region lookup in
    the table; the stream is the only mutated state. Drawing n1 then n2
    continues the sequence that one draw of n1 + n2 gives.

    The lookup counts, per draw, the interior thresholds strictly below the
    SNR: that count is the 0-based region index, so an SNR equal to G_i
    falls in the lower region (G_{i-1}, G_i]. One comparison pass per
    threshold beats a binary search over these few thresholds.
    """
    snr = rng.standard_exponential(n)
    snr *= channel.mean_snr
    idx = np.zeros(n, np.intp)
    for g in table.thresholds[1:-1]:
        idx += snr > g
    return np.asarray(table.durations).take(idx)


# ---------------------------------------------------------------------------
# Scenario files: one `key = value` per line, `#` comments, blank lines ok.
# Keys: mean_snr_db, thresholds_db, long_ttis, mu_short, lambda_ratio, rho.
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "mean_snr_db": "5",
    "thresholds_db": "0, 10",
    "long_ttis": "15, 10, 2",
    "mu_short": "1",
    "lambda_ratio": "4",
    "rho": "0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9",
}


@dataclass(frozen=True)
class Scenario:
    """A parsed experiment scenario: channel, rate table, mix and load points.

    Construction rejects TTIs that are not whole slots; load points are kept
    as given, and `config_for` rejects one outside (0, 1).
    """

    channel: ChannelModel
    table: RateAdaptationTable
    mu_short: float
    lambda_ratio: float
    rho_list: tuple[float, ...] = field(default=())

    def __post_init__(self) -> None:
        _check_mu_short(self.mu_short)
        if not 0.0 <= self.lambda_ratio < math.inf:
            raise ValueError(f"lambda_ratio must be finite and >= 0, got {self.lambda_ratio}")
        _check_slot_alignment(self.table, 1.0 / self.mu_short)

    def config_for(self, rho: float) -> TrafficConfig:
        """TrafficConfig at one utilization point of this scenario.

        Inverts rho = lambda_long*E[S_L] + lambda_short*E[S_S] for the pair
        with lambda_long = lambda_ratio * lambda_short.
        """
        if not (0.0 < rho < 1.0):
            raise SaturationError(f"target utilization must lie in (0, 1), got {rho}")
        e_l, _ = long_service_moments(self.channel, self.table)
        lam_s = rho / (self.lambda_ratio * e_l + 1.0 / self.mu_short)
        return TrafficConfig(
            lambda_short=lam_s,
            lambda_long=self.lambda_ratio * lam_s,
            mu_short=self.mu_short,
            channel=self.channel,
            table=self.table,
        )


def _parse_floats(value: str, key: str) -> list[float]:
    items = [v.strip() for v in value.split(",") if v.strip()]
    try:
        return [float(v) for v in items]
    except ValueError as exc:
        raise ValueError(f"bad numeric list for {key!r}: {value!r}") from exc


def parse_scenario(text: str) -> Scenario:
    """Parse the key=value scenario grammar; unknown or repeated keys are rejected.

    Load points are kept as written, in range or not: each command decides
    what an out-of-range point means for it.
    """
    values = dict(_DEFAULTS)
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in set_on:
            raise ValueError(f"line {lineno}: key {key!r} already set on line {set_on[key]}")
        set_on[key] = lineno
        values[key] = value.strip()

    mean_snr_db = _parse_floats(values["mean_snr_db"], "mean_snr_db")
    if len(mean_snr_db) != 1:
        raise ValueError("mean_snr_db must be a single value")
    mu_short_v = _parse_floats(values["mu_short"], "mu_short")
    if len(mu_short_v) != 1:
        raise ValueError("mu_short must be a single value")
    ratio_v = _parse_floats(values["lambda_ratio"], "lambda_ratio")
    if len(ratio_v) != 1:
        raise ValueError("lambda_ratio must be a single value")
    thresholds_db = _parse_floats(values["thresholds_db"], "thresholds_db")
    long_ttis = _parse_floats(values["long_ttis"], "long_ttis")
    if len(long_ttis) != len(thresholds_db) + 1:
        raise ValueError(
            f"{len(long_ttis)} long_ttis for {len(thresholds_db)} thresholds "
            f"(need one duration per region)"
        )
    rho_list = tuple(_parse_floats(values["rho"], "rho"))
    return Scenario(
        channel=ChannelModel.from_db(mean_snr_db[0]),
        table=RateAdaptationTable.from_tti_durations(thresholds_db, long_ttis),
        mu_short=mu_short_v[0],
        lambda_ratio=ratio_v[0],
        rho_list=rho_list,
    )


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def default_scenario() -> Scenario:
    """The built-in headline scenario (5 dB mean SNR, TTIs 15/10/2, ratio 4)."""
    return parse_scenario("")
