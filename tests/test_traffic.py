"""Channel, rate-table and traffic-config unit tests.

Expected values marked "oracle:" are frozen from independent direct
evaluations (math.exp sums, hand arithmetic), not from the implementation.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tddq import analytic, traffic
from tddq import (
    ChannelModel,
    RateAdaptationTable,
    SaturationError,
    Scenario,
    TrafficConfig,
    default_scenario,
    long_service_moments,
    parse_scenario,
    region_probabilities,
    sample_long_services,
    utilization,
)

# oracle: p_i = exp(-G_{i-1}/gbar) - exp(-G_i/gbar) at gbar = 10^0.5,
# thresholds 1 and 10 (0 dB, 10 dB)
GBAR_5DB = 10.0**0.5
P_FIG3 = (
    1.0 - math.exp(-1.0 / GBAR_5DB),                       # 0.2711065858899754
    math.exp(-1.0 / GBAR_5DB) - math.exp(-10.0 / GBAR_5DB),  # 0.6865641944868196
    math.exp(-10.0 / GBAR_5DB),                            # 0.04232921962320501
)
# oracle: direct summation with durations (15, 10, 2), worst channel first
E_SL_FIG3 = 15.0 * P_FIG3[0] + 10.0 * P_FIG3[1] + 2.0 * P_FIG3[2]     # 11.016899172464237
E_SL2_FIG3 = 225.0 * P_FIG3[0] + 100.0 * P_FIG3[1] + 4.0 * P_FIG3[2]  # 129.82471815241925


def fig3_channel() -> ChannelModel:
    return ChannelModel.from_db(5.0)


def fig3_table() -> RateAdaptationTable:
    return RateAdaptationTable.from_tti_durations((0.0, 10.0), (15.0, 10.0, 2.0))


def random_table(rng: np.random.Generator) -> tuple[ChannelModel, RateAdaptationTable]:
    m = int(rng.integers(1, 7))
    inner = np.sort(rng.uniform(0.1, 50.0, size=m - 1))
    rates = np.sort(rng.uniform(0.05, 5.0, size=m))
    table = RateAdaptationTable(
        thresholds=(0.0, *map(float, inner), math.inf),
        rates=tuple(map(float, rates)),
    )
    return ChannelModel(float(rng.uniform(0.05, 50.0))), table


@st.composite
def tables(draw) -> RateAdaptationTable:
    """Rate tables with 1-6 regions, increasing thresholds and rates."""
    m = draw(st.integers(1, 6))
    inner = draw(st.lists(st.floats(0.01, 100.0), min_size=m - 1, max_size=m - 1,
                          unique=True))
    rates = draw(st.lists(st.floats(0.05, 5.0), min_size=m, max_size=m))
    return RateAdaptationTable(thresholds=(0.0, *sorted(inner), math.inf),
                               rates=tuple(sorted(rates)))


def count_region_probabilities(monkeypatch) -> list[int]:
    """Empty the moment cache and count region_probabilities calls from now on."""
    traffic._long_service_moments.cache_clear()
    calls = [0]
    original = traffic.region_probabilities

    def counted(channel, table):
        calls[0] += 1
        return original(channel, table)

    monkeypatch.setattr(traffic, "region_probabilities", counted)
    return calls


class TestChannelModel:
    def test_db_conversion(self):
        assert ChannelModel.from_db(0.0).mean_snr == pytest.approx(1.0)
        assert ChannelModel.from_db(5.0).mean_snr == pytest.approx(GBAR_5DB)
        assert ChannelModel.from_db(-10.0).mean_snr == pytest.approx(0.1)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(ValueError):
            ChannelModel(bad)


class TestRateAdaptationTable:
    def test_fig3_construction(self):
        table = fig3_table()
        assert len(table.rates) == 3
        assert table.thresholds[0] == 0.0
        assert math.isinf(table.thresholds[-1])
        assert table.thresholds[1] == pytest.approx(1.0)
        assert table.thresholds[2] == pytest.approx(10.0)
        assert table.durations == pytest.approx((15.0, 10.0, 2.0))

    def test_rejects_bad_thresholds(self):
        with pytest.raises(ValueError):
            RateAdaptationTable(thresholds=(1.0, math.inf), rates=(1.0,))
        with pytest.raises(ValueError):
            RateAdaptationTable(thresholds=(0.0, 5.0), rates=(1.0,))
        with pytest.raises(ValueError):
            RateAdaptationTable(thresholds=(0.0, 5.0, 4.0, math.inf), rates=(1.0, 2.0, 3.0))
        with pytest.raises(ValueError):
            RateAdaptationTable(thresholds=(0.0, math.inf), rates=(1.0, 2.0))

    def test_rejects_nonmonotone_rates(self):
        # a better channel must not transmit slower: durations (2, 10, 15)
        # over increasing SNR regions are rejected
        with pytest.raises(ValueError):
            RateAdaptationTable.from_tti_durations((0.0, 10.0), (2.0, 10.0, 15.0))

    def test_rejects_nonpositive_rates(self):
        with pytest.raises(ValueError):
            RateAdaptationTable(thresholds=(0.0, math.inf), rates=(0.0,))

    def test_rejects_nan_threshold(self):
        with pytest.raises(ValueError, match="thresholds must not be NaN"):
            RateAdaptationTable(thresholds=(0.0, math.nan, math.inf), rates=(1.0, 2.0))
        with pytest.raises(ValueError, match="thresholds"):
            RateAdaptationTable.from_tti_durations((0.0, math.nan), (15.0, 10.0, 2.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_nonfinite_rates(self, bad):
        with pytest.raises(ValueError, match="rates must be positive and finite"):
            RateAdaptationTable(thresholds=(0.0, 1.0, math.inf), rates=(1.0, bad))

    @pytest.mark.parametrize("bad", [0.0, math.inf, math.nan])
    def test_rejects_bad_durations(self, bad):
        with pytest.raises(ValueError, match="durations must be positive and finite"):
            RateAdaptationTable.from_tti_durations((0.0, 10.0), (15.0, bad, 2.0))


class TestRegionProbabilities:
    def test_single_region_is_certain(self):
        table = RateAdaptationTable(thresholds=(0.0, math.inf), rates=(0.1,))
        for snr in (0.01, 1.0, 100.0):
            p = region_probabilities(ChannelModel(snr), table)
            assert p.tolist() == [1.0]

    def test_fig3_values(self):
        p = region_probabilities(fig3_channel(), fig3_table())
        assert p == pytest.approx(P_FIG3, abs=1e-15)
        # frozen literals from the oracle evaluation
        assert p[0] == pytest.approx(0.2711065858899754, abs=1e-12)
        assert p[1] == pytest.approx(0.6865641944868196, abs=1e-12)
        assert p[2] == pytest.approx(0.04232921962320501, abs=1e-12)
        assert abs(p.sum() - 1.0) <= 1e-12

    def test_strong_channel_limit(self):
        # mean SNR far above every threshold: top region takes it all
        p = region_probabilities(ChannelModel(1e9), fig3_table())
        assert p[-1] > 0.99999
        assert p[0] < 1e-8

    def test_sum_randomized_tables(self):
        rng = np.random.default_rng(20260808)
        worst = 0.0
        for _ in range(300):
            channel, table = random_table(rng)
            worst = max(worst, abs(float(region_probabilities(channel, table).sum()) - 1.0))
        assert worst <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sum_and_nonnegativity_property(self, seed):
        channel, table = random_table(np.random.default_rng(seed))
        p = region_probabilities(channel, table)
        assert abs(float(p.sum()) - 1.0) <= 1e-12
        assert np.all(p >= 0.0)

    @given(st.integers(0, 2**32 - 1), st.floats(0.05, 0.95))
    @settings(max_examples=60, deadline=None)
    def test_refinement_consistency(self, seed, frac):
        """Splitting a region (same rate both halves) must not move mass."""
        channel, table = random_table(np.random.default_rng(seed))
        p = region_probabilities(channel, table)
        i = seed % len(table.rates)
        lo, hi = table.thresholds[i], table.thresholds[i + 1]
        split = lo + frac * ((hi - lo) if math.isfinite(hi) else max(lo, 1.0) * 3.0)
        thresholds = (*table.thresholds[: i + 1], split, *table.thresholds[i + 1 :])
        rates = (*table.rates[: i + 1], table.rates[i], *table.rates[i + 1 :])
        refined = region_probabilities(channel, RateAdaptationTable(thresholds, rates))
        assert refined[i] + refined[i + 1] == pytest.approx(p[i], abs=1e-12)
        merged = np.concatenate([refined[:i], [refined[i] + refined[i + 1]], refined[i + 2 :]])
        assert merged == pytest.approx(p, abs=1e-12)


class TestServiceMoments:
    def test_single_rate_deterministic(self):
        table = RateAdaptationTable(thresholds=(0.0, math.inf), rates=(0.1,))
        assert long_service_moments(ChannelModel(3.0), table) == pytest.approx((10.0, 100.0))

    def test_fig3_moments(self):
        first, second = long_service_moments(fig3_channel(), fig3_table())
        assert first == pytest.approx(E_SL_FIG3, rel=1e-12)
        assert second == pytest.approx(E_SL2_FIG3, rel=1e-12)
        assert second >= first**2

    def test_near_degenerate_region(self):
        # vanishing mean SNR concentrates all mass on the worst region
        first, second = long_service_moments(ChannelModel(1e-6), fig3_table())
        assert first == pytest.approx(15.0, rel=1e-4)
        assert second == pytest.approx(225.0, rel=1e-4)

    @given(tables(), st.floats(1e-3, 1e3))
    @settings(max_examples=80, deadline=None)
    def test_cached_moments_equal_direct_sums(self, table, mean_snr):
        channel = ChannelModel(mean_snr)
        tail = np.exp(-np.asarray(table.thresholds) / mean_snr)
        p = tail[:-1] - tail[1:]
        mu = np.asarray(table.rates)
        direct = (float(np.sum(p / mu)), float(np.sum(p / mu**2)))
        traffic._long_service_moments.cache_clear()
        assert long_service_moments(channel, table) == direct  # computed
        assert long_service_moments(channel, table) == direct  # cached
        assert long_service_moments(replace(channel), replace(table)) == direct

    def test_moments_computed_once_per_equal_pair(self, monkeypatch):
        calls = count_region_probabilities(monkeypatch)
        first = long_service_moments(fig3_channel(), fig3_table())
        second = long_service_moments(fig3_channel(), fig3_table())
        assert first == second
        assert calls == [1]

    def test_fig3_point_computes_moments_once(self, monkeypatch):
        calls = count_region_probabilities(monkeypatch)
        config = default_scenario().config_for(0.7)
        analytic.mg1_priority_sojourn(config)
        analytic.mg1_priority_sojourn_slotted(config)
        analytic.mg2_priority_sojourn(config)
        assert calls == [1]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_variance_nonnegative(self, seed):
        channel, table = random_table(np.random.default_rng(seed))
        first, second = long_service_moments(channel, table)
        assert second - first**2 >= -1e-12

    def test_short_moments(self):
        def config(mu):
            table = RateAdaptationTable(thresholds=(0.0, math.inf), rates=(mu,))
            return TrafficConfig(0.0, 0.0, mu, ChannelModel(1.0), table)

        # deterministic short service: its moments are the slot and its square
        assert config(1.0).slot == 1.0
        assert config(2.0).slot == 0.5
        assert config(0.1).slot == pytest.approx(10.0, rel=1e-15)
        assert analytic._moments(config(2.0))[:2] == (0.5, 0.25)


class TestUtilization:
    def test_empty_system(self):
        table = RateAdaptationTable(thresholds=(0.0, math.inf), rates=(1.0,))
        config = TrafficConfig(0.0, 0.0, 1.0, ChannelModel(1.0), table)
        assert utilization(config) == (0.0, 0.0, 0.0)

    def test_hand_arithmetic(self):
        # E[S_L] = 2, so rho = 0.1*1 + 0.4*2 = 0.9
        table = RateAdaptationTable(thresholds=(0.0, math.inf), rates=(0.5,))
        config = TrafficConfig(0.1, 0.4, 1.0, ChannelModel(1.0), table)
        rho, rho_s, rho_l = utilization(config)
        assert rho == pytest.approx(0.9, abs=1e-12)
        assert rho_s == pytest.approx(0.1, abs=1e-12)
        assert rho_l == pytest.approx(0.8, abs=1e-12)

    def test_saturation_rejected_at_construction(self):
        table = RateAdaptationTable(thresholds=(0.0, math.inf), rates=(0.5,))
        with pytest.raises(SaturationError):
            TrafficConfig(0.3, 0.4, 1.0, ChannelModel(1.0), table)

    def test_slot_alignment_enforced(self):
        # 2.5 time units is not a whole number of unit slots
        table = RateAdaptationTable(thresholds=(0.0, math.inf), rates=(0.4,))
        with pytest.raises(ValueError):
            TrafficConfig(0.0, 0.1, 1.0, ChannelModel(1.0), table)
        # but it is five half-slots
        TrafficConfig(0.0, 0.1, 2.0, ChannelModel(1.0), table)

    def test_misaligned_table_raises_on_every_construction(self):
        # a failed check is not cached: each build raises it again
        table = RateAdaptationTable(thresholds=(0.0, math.inf), rates=(0.4,))
        messages = []
        for _ in range(3):
            for build in (lambda: Scenario(ChannelModel(1.0), table, 1.0, 4.0),
                          lambda: TrafficConfig(0.0, 0.1, 1.0, ChannelModel(1.0), table)):
                with pytest.raises(ValueError) as info:
                    build()
                messages.append(str(info.value))
        assert messages == ["long TTI 2.5 is not a whole number of slots (slot=1.0)"] * 6

    def test_fig3_scenario_checks_alignment_once(self):
        traffic._check_slot_alignment.cache_clear()
        scenario = default_scenario()
        for rho in scenario.rho_list:
            scenario.config_for(rho)
        info = traffic._check_slot_alignment.cache_info()
        assert (len(scenario.rho_list), info.misses, info.hits) == (9, 1, 9)

    def test_rejects_negative_rates(self):
        table = RateAdaptationTable(thresholds=(0.0, math.inf), rates=(1.0,))
        with pytest.raises(ValueError):
            TrafficConfig(-0.1, 0.0, 1.0, ChannelModel(1.0), table)
        with pytest.raises(ValueError):
            TrafficConfig(0.1, 0.0, 0.0, ChannelModel(1.0), table)

    @pytest.mark.parametrize("field, args", [
        ("lambda_short", (math.nan, 0.0, 1.0)),
        ("lambda_long", (0.0, math.nan, 1.0)),
        ("lambda_long", (0.0, math.inf, 1.0)),
        ("mu_short", (0.1, 0.0, math.inf)),
    ])
    def test_rejects_nonfinite_values(self, field, args):
        table = RateAdaptationTable(thresholds=(0.0, math.inf), rates=(1.0,))
        with pytest.raises(ValueError, match=field):
            TrafficConfig(*args, ChannelModel(1.0), table)


def fig3_rates(rho, ratio=4.0, mu_short=1.0):
    """(lambda_short, lambda_long) of fig3's channel and table at `rho`."""
    config = Scenario(fig3_channel(), fig3_table(), mu_short, ratio).config_for(rho)
    return config.lambda_short, config.lambda_long


class TestSolveArrivalRates:
    """Scenario.config_for solves the two arrival rates for a target load."""

    def test_short_only(self):
        lam_s, lam_l = fig3_rates(0.5, 0.0)
        assert lam_s == pytest.approx(0.5, abs=1e-12)
        assert lam_l == 0.0

    def test_fig3_target(self):
        # oracle: lam_S = rho / (4 E[S_L] + 1)
        lam_s, lam_l = fig3_rates(0.9)
        assert lam_s == pytest.approx(0.9 / (4.0 * E_SL_FIG3 + 1.0), rel=1e-12)
        assert lam_s == pytest.approx(0.019970002088053582, rel=1e-12)
        assert lam_l == pytest.approx(4.0 * lam_s, rel=1e-12)

    def test_plug_back(self):
        config = default_scenario().config_for(0.9)
        rho, _, _ = utilization(config)
        assert rho == pytest.approx(0.9, abs=1e-12)

    @given(st.floats(0.01, 0.99), st.floats(0.0, 50.0))
    @settings(max_examples=80, deadline=None)
    def test_plug_back_property(self, target, ratio):
        lam_s, lam_l = fig3_rates(target, ratio)
        e_l, _ = long_service_moments(fig3_channel(), fig3_table())
        assert lam_l * e_l + lam_s * 1.0 == pytest.approx(target, abs=1e-12)

    def test_boundaries(self):
        fig3_rates(0.99999)  # stable, accepted
        with pytest.raises(SaturationError):
            fig3_rates(1.0)
        with pytest.raises(SaturationError):
            fig3_rates(0.0)
        with pytest.raises(ValueError):
            fig3_rates(0.5, -1.0)
        with pytest.raises(ValueError, match="lambda_ratio"):
            fig3_rates(0.5, math.nan)
        with pytest.raises(ValueError, match="mu_short"):
            fig3_rates(0.5, mu_short=math.inf)


def searchsorted_long_services(channel, table, rng, n):
    """The binary-search lookup, the reference for sample_long_services."""
    snr = rng.standard_exponential(n) * channel.mean_snr
    idx = np.searchsorted(np.asarray(table.thresholds[1:-1]), snr, side="left")
    return np.asarray(table.durations)[idx]


class FixedDraws:
    """A generator stub whose exponential draw is a given array."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values

    def standard_exponential(self, n: int) -> np.ndarray:
        assert n == len(self.values)
        return self.values.copy()


class TestSampleLongService:
    @settings(max_examples=300, deadline=None)
    @given(tables(), st.lists(st.floats(0.0, 200.0), max_size=40))
    def test_lookup_equals_binary_search(self, table, extra):
        inner = np.asarray(table.thresholds[1:-1])
        snr = np.concatenate([inner, np.nextafter(inner, -np.inf),
                              np.nextafter(inner, np.inf), [0.0], extra])
        got = sample_long_services(ChannelModel(1.0), table, FixedDraws(snr), len(snr))
        want = searchsorted_long_services(ChannelModel(1.0), table, FixedDraws(snr), len(snr))
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_threshold_falls_in_lower_region(self):
        table = fig3_table()
        snr = np.array([1.0, np.nextafter(1.0, 2.0), 10.0, np.nextafter(10.0, 11.0)])
        draws = sample_long_services(ChannelModel(1.0), table, FixedDraws(snr), 4)
        assert draws.tolist() == [15.0, 10.0, 10.0, 2.0]

    def test_single_region_constant(self):
        table = RateAdaptationTable(thresholds=(0.0, math.inf), rates=(0.5,))
        rng = np.random.default_rng(1)
        draws = sample_long_services(ChannelModel(1.0), table, rng, 100)
        assert draws.tolist() == [2.0] * 100

    def test_same_seed_same_sequence(self):
        channel, table = fig3_channel(), fig3_table()
        rng1, rng2 = np.random.default_rng(7), np.random.default_rng(7)
        seq1 = sample_long_services(channel, table, rng1, 200)
        seq2 = sample_long_services(channel, table, rng2, 200)
        assert seq1.tolist() == seq2.tolist()

    def test_empirical_frequencies_match_probabilities(self):
        channel, table = fig3_channel(), fig3_table()
        draws = sample_long_services(channel, table, np.random.default_rng(2026), 1_000_000)
        for duration, p in zip((15.0, 10.0, 2.0), P_FIG3):
            freq = float(np.mean(draws == duration))
            assert abs(freq - p) < 0.005

    def test_monte_carlo_mean_converges(self):
        channel, table = fig3_channel(), fig3_table()
        n = 1_000_000
        draws = sample_long_services(channel, table, np.random.default_rng(55), n)
        std = math.sqrt(E_SL2_FIG3 - E_SL_FIG3**2)
        assert abs(float(draws.mean()) - E_SL_FIG3) <= 5.0 * std / math.sqrt(n)


class TestScenarioParsing:
    def test_defaults_match_headline_setting(self):
        s = default_scenario()
        assert s.channel.mean_snr == pytest.approx(GBAR_5DB)
        assert s.table.durations == pytest.approx((15.0, 10.0, 2.0))
        assert s.mu_short == 1.0
        assert s.lambda_ratio == 4.0
        assert s.rho_list == pytest.approx(tuple(np.arange(1, 10) / 10))

    def test_parse_with_comments_and_spacing(self):
        s = parse_scenario(
            """
            # comment line
            mean_snr_db = 10   # trailing comment
            thresholds_db = 3
            long_ttis = 4, 2
            mu_short = 2
            lambda_ratio = 1.5
            rho = 0.25, 0.5
            """
        )
        assert s.channel.mean_snr == pytest.approx(10.0)
        assert s.table.durations == pytest.approx((4.0, 2.0))
        assert s.mu_short == 2.0
        assert s.lambda_ratio == 1.5
        assert s.rho_list == (0.25, 0.5)

    def test_repo_experiment_file_parses(self):
        from tddq import load_scenario

        s = load_scenario("experiments/fig3.cfg")
        assert s == default_scenario()

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_scenario("bogus = 1\n")

    @pytest.mark.parametrize("text, key", [
        ("rho = 0.5\n# later\nrho = 0.3\n", "rho"),
        ("mean_snr_db = 5\n\nmean_snr_db = 10\n", "mean_snr_db"),
    ])
    def test_repeated_key_rejected(self, text, key):
        with pytest.raises(ValueError, match=f"line 3: key '{key}' already set on line 1"):
            parse_scenario(text)

    def test_bad_number_rejected(self):
        with pytest.raises(ValueError):
            parse_scenario("mu_short = fast\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key = value"):
            parse_scenario("mu_short 1\n")

    def test_region_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            parse_scenario("thresholds_db = 0, 10\nlong_ttis = 10, 2\n")

    @pytest.mark.parametrize("line, field", [
        ("mu_short = inf", "mu_short"),
        ("mu_short = 0", "mu_short"),
        ("long_ttis = 15, 0, 2", "durations"),
        ("long_ttis = 15, nan, 2", "durations"),
        ("lambda_ratio = nan", "lambda_ratio"),
        ("lambda_ratio = inf", "lambda_ratio"),
        ("thresholds_db = 0, nan", "thresholds"),
    ])
    def test_nonfinite_or_zero_values_rejected(self, line, field):
        with pytest.raises(ValueError, match=field):
            parse_scenario(line + "\n")

    def test_rho_points_kept_as_written(self):
        # each command decides what an out-of-range point means
        assert parse_scenario("rho = 0.5, 1.2\n").rho_list == (0.5, 1.2)

    def test_config_for_builds_stable_point(self):
        config = default_scenario().config_for(0.5)
        rho, _, _ = utilization(config)
        assert rho == pytest.approx(0.5, abs=1e-12)
