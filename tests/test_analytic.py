"""Closed-form latency and residual/cycle model tests.

Derived expectations are frozen from independent oracles: the exact M/M/1
wait, hand evaluation of the priority M/G/1 terms, factor-by-factor
re-derivation of the two-server approximation, and order statistics of
uniform/exponential minima.
"""

import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tddq import (
    ChannelModel,
    RateAdaptationTable,
    ResidualModel,
    SaturationError,
    Scenario,
    SojournPrediction,
    TrafficConfig,
    cycle_time_stats,
    default_scenario,
    long_service_moments,
    mg1_priority_sojourn,
    mg1_priority_sojourn_slotted,
    mg2_priority_sojourn,
    residual_cdf,
    utilization,
)
from tddq import analytic, traffic

SQRT6 = math.sqrt(6.0)


def single_rate_config(lam_s=0.0, lam_l=0.0, mu=1.0, duration=2.0, mu_short=1.0):
    table = RateAdaptationTable(thresholds=(0.0, math.inf), rates=(1.0 / duration,))
    return TrafficConfig(lam_s, lam_l, mu_short, ChannelModel(1.0), table)


def fig3_config(rho):
    return default_scenario().config_for(rho)


def printed_waits(config):
    """Waits (short, long) of the published-constant two-server variant.

    Normalizes the aggregate-load factor by the squared total load and the
    long-class service rate instead of the mixture rate:
    wait = num/denom^2 * rho^(sqrt(6)-1) * E[S_L] / (4 (1-rho_S)) for the
    short class; the long class divides by (1-rho) as well.
    """
    e_s, e_s2 = config.slot, config.slot**2
    e_l, e_l2 = long_service_moments(config.channel, config.table)
    rho, rho_s, _ = utilization(config)
    num = config.lambda_long * e_l2 + config.lambda_short * e_s2
    denom = config.lambda_long * e_l + config.lambda_short * e_s
    factor = num / denom**2 * rho ** (SQRT6 - 1.0) * e_l / 4.0
    return factor / (1.0 - rho_s), factor / ((1.0 - rho) * (1.0 - rho_s))


class TestSojournPrediction:
    def test_mean_is_sum_of_components(self):
        p = SojournPrediction(1.0, 2.0, 0.5, 4.0, 0.25)
        assert p.mean_short == pytest.approx(1.75)
        assert p.mean_long == pytest.approx(6.25)

    def test_rejects_negative_components(self):
        with pytest.raises(ValueError):
            SojournPrediction(-0.1, 0.0, 1.0, 1.0, 0.5)


class TestMg1PrioritySojourn:
    def test_short_only_hand_value(self):
        # oracle: 0.5/(2*0.5) + 1 + 0.5 = 2.0
        p = mg1_priority_sojourn(single_rate_config(lam_s=0.5))
        assert p.mean_short == pytest.approx(2.0, abs=1e-12)

    def test_empty_system_is_service_plus_alignment(self):
        config = fig3_config(0.5)
        empty = TrafficConfig(0.0, 0.0, config.mu_short, config.channel, config.table)
        p = mg1_priority_sojourn(empty)
        e_l, _ = long_service_moments(config.channel, config.table)
        assert p.mean_short == pytest.approx(1.5, abs=1e-12)
        assert p.mean_long == pytest.approx(e_l + 0.5, rel=1e-12)

    def test_fig3_against_term_by_term_oracle(self):
        config = fig3_config(0.7)
        e_l, e_l2 = long_service_moments(config.channel, config.table)
        num = config.lambda_long * e_l2 + config.lambda_short * 1.0
        rho, rho_s, _ = utilization(config)
        p = mg1_priority_sojourn(config)
        assert p.mean_short == pytest.approx(num / (2 * (1 - rho_s)) + 1.5, rel=1e-12)
        assert p.mean_long == pytest.approx(
            num / (2 * (1 - rho) * (1 - rho_s)) + e_l + 0.5, rel=1e-12
        )

    def test_short_faster_than_long(self):
        for rho in (0.1, 0.4, 0.8):
            p = mg1_priority_sojourn(fig3_config(rho))
            assert p.mean_short < p.mean_long

    def test_increasing_in_rho_and_long_diverges(self):
        rhos = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)
        preds = [mg1_priority_sojourn(fig3_config(r)) for r in rhos]
        shorts = [p.mean_short for p in preds]
        longs = [p.mean_long for p in preds]
        assert shorts == sorted(shorts)
        assert longs == sorted(longs)
        assert longs[-1] > 50 * longs[2]


class TestMg1Slotted:
    def test_toy_mix_hand_values(self):
        # lam_S=0.2, lam_L=0.1, durations {4,2} equally likely:
        # oracle: w_S = (0.2 + 0.1*7)/1.6 = 0.5625 -> 2.0625;
        #         w_L = (0.35 + 0.15 + 0.2*1.5625)/0.5 = 1.625 -> 5.125
        g = math.log(2.0)
        table = RateAdaptationTable(thresholds=(0.0, g, math.inf), rates=(0.25, 0.5))
        config = TrafficConfig(0.2, 0.1, 1.0, ChannelModel(1.0), table)
        p = mg1_priority_sojourn_slotted(config)
        assert p.mean_short == pytest.approx(2.0625, rel=1e-12)
        assert p.mean_long == pytest.approx(5.125, rel=1e-12)

    def test_relation_to_continuous_form(self):
        # short: continuous minus rho_L/(2(1-rho_S)); long: plus rho_S/(2(1-rho_S))
        for rho in (0.3, 0.6, 0.85):
            config = fig3_config(rho)
            _, rho_s, rho_l = utilization(config)
            cont = mg1_priority_sojourn(config)
            slot = mg1_priority_sojourn_slotted(config)
            assert cont.mean_short - slot.mean_short == pytest.approx(
                rho_l / (2 * (1 - rho_s)), rel=1e-10
            )
            assert slot.mean_long - cont.mean_long == pytest.approx(
                rho_s / (2 * (1 - rho_s)), rel=1e-10
            )

    def test_conservation_with_continuous_form(self):
        # rho-weighted waits agree between the two forms (work conservation)
        config = fig3_config(0.7)
        _, rho_s, rho_l = utilization(config)
        cont = mg1_priority_sojourn(config)
        slot = mg1_priority_sojourn_slotted(config)
        lhs = rho_s * cont.wait_short + rho_l * cont.wait_long
        rhs = rho_s * slot.wait_short + rho_l * slot.wait_long
        assert lhs == pytest.approx(rhs, rel=1e-10)


@st.composite
def scenario_configs(draw):
    """Configs over random loads, class mixes (short only at ratio 0), mean
    SNRs and slot lengths, with fig3's TTIs in slots of 1/mu_short."""
    base = default_scenario()
    mu_short = draw(st.sampled_from([1.0, 1.3, 3.0, 7.0, 10.0]))
    table = RateAdaptationTable(base.table.thresholds,
                                tuple(r * mu_short for r in base.table.rates))
    channel = ChannelModel(draw(st.floats(0.05, 50.0)))
    ratio = draw(st.one_of(st.just(0.0), st.floats(0.0, 20.0)))
    rho = draw(st.floats(1e-3, 0.999))
    return Scenario(channel, table, mu_short, ratio).config_for(rho)


class TestKimuraWait:
    """The FCFS wait inside mg2_priority_sojourn is Kimura's at s = 2."""

    @given(scenario_configs())
    @settings(max_examples=300, deadline=None)
    def test_long_wait_is_kimura_at_two_servers(self, config):
        # the moments rebuilt from the rates and the table, apart from the traffic layer
        g, m = config.table.thresholds, config.channel.mean_snr
        p = [math.exp(-a / m) - math.exp(-b / m) for a, b in zip(g, g[1:])]
        e_l = sum(pi / r for pi, r in zip(p, config.table.rates))
        e_l2 = sum(pi / r**2 for pi, r in zip(p, config.table.rates))
        e_s = 1.0 / config.mu_short
        lam_s, lam_l = config.lambda_short, config.lambda_long
        rho_s = lam_s * e_s
        rho = rho_s + lam_l * e_l
        mix_mean = (lam_s * e_s + lam_l * e_l) / (lam_s + lam_l)
        mix_second = (lam_s * e_s**2 + lam_l * e_l2) / (lam_s + lam_l)
        scv = mix_second / mix_mean**2 - 1.0
        wait = (1.0 + scv) / 2.0 * rho ** (SQRT6 - 1.0) * mix_mean / (2.0 * (1.0 - rho))
        got = mg2_priority_sojourn(config)
        assert got.wait_long * (1.0 - rho_s) == pytest.approx(wait, rel=1e-12)

    def test_short_only_load_with_rounded_negative_scv(self):
        # E[S^2]/E[S]^2 - 1 rounds to -2.2e-16 for the deterministic service
        # here; the wait is M/D/2's, half of M/M/2's
        table = RateAdaptationTable.from_tti_durations((0.0, 10.0),
                                                       (30 / 1.3, 20 / 1.3, 4 / 1.3))
        rho = 0.7167340360091442
        config = Scenario(ChannelModel.from_db(5.0), table, 1.3, 0.0).config_for(rho)
        m_m_2 = rho ** (SQRT6 - 1.0) / 1.3 / (2.0 * (1.0 - rho))
        assert mg2_priority_sojourn(config).wait_short == pytest.approx(0.5 * m_m_2, rel=1e-12)

    def test_two_servers_frozen_value(self):
        # frozen doubles: a rewrite of the wait must keep them bit for bit
        for rho, waits in ((0.5, (1.068645809734235, 2.13729161946847)),
                           (0.9, (2.527924574896887, 25.27924574896885))):
            p = mg2_priority_sojourn(fig3_config(rho))
            assert (p.wait_short, p.wait_long) == waits
            assert (p.service_short, p.service_long, p.alignment) == (
                1.0, 11.016899172464235, 0.5)


class TestMg2PrioritySojourn:
    def test_degenerate_empty_system(self):
        config = fig3_config(0.5)
        empty = TrafficConfig(0.0, 0.0, config.mu_short, config.channel, config.table)
        p = mg2_priority_sojourn(empty)
        e_l, _ = long_service_moments(config.channel, config.table)
        assert p.wait_short == 0.0 and p.wait_long == 0.0
        assert p.mean_short == pytest.approx(1.5)
        assert p.mean_long == pytest.approx(e_l + 0.5)

    def test_two_servers_beat_one_at_equal_per_server_load(self):
        config = fig3_config(0.9)
        assert mg2_priority_sojourn(config).mean_short < mg1_priority_sojourn(config).mean_short
        assert mg2_priority_sojourn(config).mean_long < mg1_priority_sojourn(config).mean_long

    def test_fig3_against_factor_oracle(self):
        """Independent re-derivation: Kimura FCFS wait on the mixture, then
        the one-server priority/FCFS ratios (1-rho)/(1-rho_S) and 1/(1-rho_S)."""
        config = fig3_config(0.5)
        e_l, e_l2 = long_service_moments(config.channel, config.table)
        lam_s, lam_l = config.lambda_short, config.lambda_long
        lam = lam_s + lam_l
        mix_mean = (lam_s * 1.0 + lam_l * e_l) / lam
        mix_second = (lam_s * 1.0 + lam_l * e_l2) / lam
        rho, rho_s, _ = utilization(config)
        w_fcfs = (
            (1.0 + (mix_second / mix_mean**2 - 1.0)) / 2.0
            * rho ** (SQRT6 - 1.0) * mix_mean / (2.0 * (1.0 - rho))
        )
        p = mg2_priority_sojourn(config)
        assert p.wait_short == pytest.approx(w_fcfs * (1 - rho) / (1 - rho_s), rel=1e-12)
        assert p.wait_long == pytest.approx(w_fcfs / (1 - rho_s), rel=1e-12)
        assert p.mean_short == pytest.approx(p.wait_short + 1.5, rel=1e-12)
        assert p.mean_long == pytest.approx(p.wait_long + e_l + 0.5, rel=1e-12)

    def test_increasing_in_rho_and_long_diverges(self):
        rhos = (0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999)
        preds = [mg2_priority_sojourn(fig3_config(r)) for r in rhos]
        shorts = [p.mean_short for p in preds]
        longs = [p.mean_long for p in preds]
        assert shorts == sorted(shorts)
        assert longs == sorted(longs)
        assert longs[-1] > 50 * longs[2]

    def test_printed_variant_relation(self):
        """The published-constant variant exceeds the mixture form by E[S_L]/rho."""
        for rho in (0.3, 0.5, 0.8):
            config = fig3_config(rho)
            e_l, _ = long_service_moments(config.channel, config.table)
            base = mg2_priority_sojourn(config)
            wait_short, wait_long = printed_waits(config)
            assert wait_short / base.wait_short == pytest.approx(e_l / rho, rel=1e-9)
            assert wait_long / base.wait_long == pytest.approx(e_l / rho, rel=1e-9)


def residual_model(family, rate, s_long_max, fractions):
    """A model of `family`; empirical samples are `fractions` of s_long_max."""
    if family == "empirical":
        return ResidualModel(family, s_long_max,
                             samples=tuple(f * s_long_max for f in fractions))
    return ResidualModel(family, s_long_max, rate=rate)


def out_of_place_sample(model, u):
    """Inverse-CDF residuals written as whole-array expressions, the reference
    for the in-place transform of `ResidualModel.sample`."""
    if model.family == "exponential":
        return -np.log1p(-u) / model.rate
    if model.family == "truncated-exponential":
        norm = 1.0 - math.exp(-model.rate * model.s_long_max)
        return -np.log1p(-u * norm) / model.rate
    if model.family == "uniform":
        return u * model.s_long_max
    xs = np.asarray(model.samples)
    return xs[(u * len(xs)).astype(np.int64)]


FAMILY = st.sampled_from(["exponential", "truncated-exponential", "uniform", "empirical"])
RATE = st.floats(1e-3, 1e3)
S_LONG = st.floats(1e-3, 1e3)
FRACTIONS = st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8)


class TestResidualModel:
    def test_cdf_zero_at_origin(self):
        models = [
            ResidualModel("exponential", 10.0, rate=1.0),
            ResidualModel("truncated-exponential", 10.0, rate=1.0),
            ResidualModel("uniform", 10.0),
            ResidualModel("empirical", 10.0, samples=(0.5, 2.0)),
        ]
        for model in models:
            assert residual_cdf(model, 0.0, decoupled=False) == pytest.approx(0.0)
            assert residual_cdf(model, 0.0, decoupled=True) == pytest.approx(0.0)

    def test_exponential_min_of_two(self):
        # oracle: 1 - exp(-2*1*0.5) = 0.6321205588285577
        model = ResidualModel("exponential", 10.0, rate=1.0)
        assert residual_cdf(model, 0.5, decoupled=True) == pytest.approx(
            0.6321205588285577, rel=1e-12
        )
        y = np.linspace(0.0, 10.0, 101)
        got = residual_cdf(model, y, decoupled=True)
        assert got == pytest.approx(1.0 - np.exp(-2.0 * y), rel=1e-12)

    def test_truncated_exponential_cdf_reaches_exactly_one(self):
        # numerator and norm share one exp: with math.exp in the norm, this
        # rate (and 12 of these 20 000) put F(s_long_max) one ulp above 1
        rates = [0.3188618562528366] + np.random.default_rng(7).uniform(0.1, 3.0, 20_000).tolist()
        y = np.linspace(0.0, 12.0, 121)
        for rate in rates:
            model = ResidualModel("truncated-exponential", 10.0, rate=rate)
            assert model.cdf(10.0) == 1.0, rate
            f = model.cdf(y)
            assert f.max() <= 1.0 and np.all(np.diff(f) >= 0.0), rate
        assert residual_cdf(model, 10.0, decoupled=True) == 1.0

    def test_half_mass_goes_to_three_quarters(self):
        model = ResidualModel("empirical", 1.0, samples=(0.0, 1.0))
        assert residual_cdf(model, 0.5, decoupled=False) == pytest.approx(0.5)
        assert residual_cdf(model, 0.5, decoupled=True) == pytest.approx(0.75)

    def test_uniform_cdf(self):
        model = ResidualModel("uniform", 10.0)
        assert residual_cdf(model, 2.5, decoupled=False) == pytest.approx(0.25)
        assert residual_cdf(model, 12.0, decoupled=False) == pytest.approx(1.0)

    def test_truncated_exponential_support(self):
        model = ResidualModel("truncated-exponential", 5.0, rate=0.3)
        assert residual_cdf(model, 5.0, decoupled=False) == pytest.approx(1.0)
        samples = model.sample(np.random.default_rng(3), 20_000)
        assert samples.min() >= 0.0
        assert samples.max() <= 5.0
        # plain exponential is not confined
        plain = ResidualModel("exponential", 5.0, rate=0.3)
        assert plain.sample(np.random.default_rng(3), 20_000).max() > 5.0

    @given(
        st.sampled_from(["exponential", "truncated-exponential", "uniform", "empirical"]),
        st.floats(0.1, 3.0),
        st.floats(0.0, 12.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_decoupled_dominates_coupled(self, family, rate, y):
        if family == "empirical":
            model = ResidualModel("empirical", 10.0, samples=(0.4, 1.2, 3.3, 7.0))
        elif family == "uniform":
            model = ResidualModel("uniform", 10.0)
        elif family == "exponential":
            model = ResidualModel("exponential", 10.0, rate=rate)
        else:
            model = ResidualModel("truncated-exponential", 10.0, rate=rate)
        coupled = residual_cdf(model, y, decoupled=False)
        decoupled = residual_cdf(model, y, decoupled=True)
        assert 0.0 <= coupled <= 1.0
        assert 0.0 <= decoupled <= 1.0
        assert decoupled >= coupled - 1e-12
        if 1e-9 < coupled < 1.0 - 1e-9:
            assert decoupled > coupled

    @given(FAMILY, RATE, S_LONG, FRACTIONS,
           st.sampled_from([None, (), 1, 17, 64, (1, 2), (33, 2)]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_sample_matches_out_of_place_expressions(self, family, rate, s_long_max,
                                                     fractions, size, seed):
        model = residual_model(family, rate, s_long_max, fractions)
        rng = np.random.default_rng(seed)
        clone = copy.deepcopy(rng)
        got = model.sample(rng, size)
        want = out_of_place_sample(model, np.asarray(clone.random(size)))
        assert np.shape(got) == np.shape(want) == np.shape(np.empty(size or ()))
        assert np.asarray(got, dtype=float).tobytes() == want.tobytes()
        if size is None:
            assert isinstance(got, np.float64)
        # the same uniforms were consumed
        assert rng.bit_generator.state == clone.bit_generator.state

    def test_cdfs_monotone(self):
        y = np.linspace(0.0, 12.0, 200)
        for model in (
            ResidualModel("exponential", 10.0, rate=0.7),
            ResidualModel("truncated-exponential", 10.0, rate=0.7),
            ResidualModel("uniform", 10.0),
            ResidualModel("empirical", 10.0, samples=(1.0, 2.0, 8.0)),
        ):
            for decoupled in (False, True):
                f = np.asarray(residual_cdf(model, y, decoupled))
                assert np.all(np.diff(f) >= -1e-12)

    def test_grid_equals_scalar_calls(self):
        # residual-cdf evaluates each column over its whole grid at once
        grid = np.arange(0.0, 10.0 + 0.05, 0.1)
        for rate in (0.05, 0.7, 1.0, 3.0):
            for model in (
                ResidualModel("exponential", 10.0, rate=rate),
                ResidualModel("truncated-exponential", 10.0, rate=rate),
                ResidualModel("uniform", 10.0 * rate),
                ResidualModel("empirical", 10.0, samples=(0.5, rate, 7.5)),
            ):
                for decoupled in (False, True):
                    want = [residual_cdf(model, y, decoupled) for y in grid]
                    assert residual_cdf(model, grid, decoupled).tolist() == want

    def test_validation(self):
        with pytest.raises(ValueError):
            ResidualModel("weibull", 10.0, rate=1.0)
        with pytest.raises(ValueError):
            ResidualModel("exponential", 10.0)
        with pytest.raises(ValueError):
            ResidualModel("exponential", 0.0, rate=1.0)
        with pytest.raises(ValueError):
            ResidualModel("empirical", 10.0, samples=())
        with pytest.raises(ValueError):
            ResidualModel("empirical", 10.0, samples=(-0.5, 1.0))

    @pytest.mark.parametrize("make, field", [
        (lambda: ResidualModel("uniform", math.inf), "s_long_max"),
        (lambda: ResidualModel("exponential", 10.0, rate=math.inf), "rate"),
        (lambda: ResidualModel("truncated-exponential", 10.0, rate=math.inf), "rate"),
        (lambda: ResidualModel("empirical", 10.0, samples=(1.0, math.nan, 3.0)), "samples"),
        (lambda: ResidualModel("empirical", 10.0, samples=(1.0, math.inf)), "samples"),
    ], ids=["s-long-inf", "exponential-rate-inf", "truncated-rate-inf", "samples-nan",
            "samples-inf"])
    def test_rejects_nonfinite(self, make, field):
        with pytest.raises(ValueError, match=field):
            make()


class TestCycleTime:
    def test_degenerate_residual(self):
        residual = ResidualModel("empirical", 10.0, samples=(0.0,))
        mean, samples = cycle_time_stats(residual, 1.0, 2.0, True, 1000,
                                         np.random.default_rng(0))
        assert mean == pytest.approx(4.0)
        assert np.all(samples == 4.0)

    def test_uniform_order_statistics_oracle(self):
        # oracle: E[min of two U(0,10)] = 10/3 -> 2*(1 + 10/3) + 2 = 10.666...
        residual = ResidualModel("uniform", 10.0)
        mean, _ = cycle_time_stats(residual, 1.0, 2.0, True, 200_000, np.random.default_rng(8))
        assert mean == pytest.approx(2.0 * (1.0 + 10.0 / 3.0) + 2.0, rel=5e-3)
        mean_c, _ = cycle_time_stats(residual, 1.0, 2.0, False, 200_000,
                                     np.random.default_rng(9))
        assert mean_c == pytest.approx(14.0, rel=5e-3)

    def test_exponential_min_oracle(self):
        # oracle: E[min of two Exp(rate)] = 1/(2*rate)
        residual = ResidualModel("exponential", 50.0, rate=0.5)
        mean, _ = cycle_time_stats(residual, 1.0, 0.0, True, 200_000, np.random.default_rng(10))
        assert mean == pytest.approx(2.0 * (1.0 + 1.0) + 0.0, rel=5e-3)

    @pytest.mark.parametrize("residual", [
        ResidualModel("exponential", 10.0, rate=0.7),
        ResidualModel("truncated-exponential", 10.0, rate=0.7),
        ResidualModel("uniform", 10.0),
        ResidualModel("empirical", 10.0, samples=(0.5, 2.0, 7.5)),
    ], ids=lambda r: r.family)
    def test_decoupled_draw_is_min_of_two(self, residual):
        n, seed = 10_000, 31
        _, samples = cycle_time_stats(residual, 1.0, 2.0, True, n, np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        res_a = residual.sample(rng, (n, 2)).min(axis=1)
        res_b = residual.sample(rng, (n, 2)).min(axis=1)
        assert samples.tobytes() == (2.0 * 1.0 + 2.0 + res_a + res_b).tobytes()

    @given(FAMILY, RATE, S_LONG, FRACTIONS, st.booleans(), st.floats(1e-3, 1e3),
           st.floats(0.0, 1e3), st.integers(1, 300), st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_samples_are_fixed_part_plus_both_residuals(self, family, rate, s_long_max,
                                                        fractions, decoupled, s_short,
                                                        t_proc, n, seed):
        model = residual_model(family, rate, s_long_max, fractions)
        mean, samples = cycle_time_stats(model, s_short, t_proc, decoupled, n,
                                         np.random.default_rng(seed))
        rng = np.random.default_rng(seed)
        if decoupled:
            res_a = np.minimum(*model.sample(rng, (n, 2)).T)
            res_b = np.minimum(*model.sample(rng, (n, 2)).T)
        else:
            res_a = model.sample(rng, n)
            res_b = model.sample(rng, n)
        want = 2 * s_short + t_proc + res_a + res_b
        assert samples.tobytes() == want.tobytes()
        assert mean == float(want.mean())

    def test_decoupled_never_slower(self):
        residual = ResidualModel("truncated-exponential", 10.0, rate=0.4)
        rng = np.random.default_rng(5)
        mean_dec, _ = cycle_time_stats(residual, 1.0, 2.0, True, 100_000, rng)
        mean_coup, _ = cycle_time_stats(residual, 1.0, 2.0, False, 100_000, rng)
        assert mean_dec < mean_coup

    def test_validation(self):
        residual = ResidualModel("uniform", 10.0)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            cycle_time_stats(residual, 0.0, 1.0, False, 1, rng)
        with pytest.raises(ValueError):
            cycle_time_stats(residual, 1.0, -1.0, False, 1, rng)
        with pytest.raises(ValueError):
            cycle_time_stats(residual, 1.0, 1.0, False, 0, rng)

    @pytest.mark.parametrize("s_short, t_proc, field", [
        (math.inf, 1.0, "s_short"),
        (1.0, math.nan, "t_proc"),
        (1.0, math.inf, "t_proc"),
    ], ids=["s-short-inf", "t-proc-nan", "t-proc-inf"])
    def test_rejects_nonfinite(self, s_short, t_proc, field):
        with pytest.raises(ValueError, match=field):
            cycle_time_stats(ResidualModel("uniform", 10.0), s_short, t_proc, False, 1,
                             np.random.default_rng(0))


class TestMomentLookups:
    @pytest.mark.parametrize("form", [mg1_priority_sojourn, mg1_priority_sojourn_slotted,
                                      mg2_priority_sojourn], ids=lambda f: f.__name__)
    def test_one_long_service_lookup_per_call(self, monkeypatch, form):
        config = fig3_config(0.7)
        want = form(config)
        calls, lookups = [], []

        def counting(channel, table):
            calls.append((channel, table))
            return long_service_moments(channel, table)

        cached = traffic._long_service_moments

        def looking_up(channel, table):
            lookups.append((channel, table))
            return cached(channel, table)

        monkeypatch.setattr(analytic, "long_service_moments", counting)
        # every lookup in the traffic layer, `utilization`'s included
        monkeypatch.setattr(traffic, "_long_service_moments", looking_up)
        assert form(config) == want
        assert calls == lookups == [(config.channel, config.table)]

    @given(st.floats(1e-3, 0.999), st.floats(0.0, 20.0), st.sampled_from([1.0, 3.0, 7.0, 10.0]))
    @settings(max_examples=120, deadline=None)
    def test_loads_equal_utilization(self, rho, ratio, mu_short):
        # fig3's TTIs in slots of 1/mu_short, which keeps them slot-aligned
        base = fig3_config(0.5)
        table = RateAdaptationTable(base.table.thresholds,
                                    tuple(r * mu_short for r in base.table.rates))
        config = Scenario(base.channel, table, mu_short, ratio).config_for(rho)
        rho_got, rho_s_got = analytic._moments(config)[4:]
        assert (rho_got, rho_s_got) == utilization(config)[:2]

    @pytest.mark.parametrize("lam_s, lam_l", [(0.2, 0.4), (0.0, 0.5)],
                             ids=["rho-1", "long-only-rho-1"])
    def test_saturated_config_rejected_when_built(self, lam_s, lam_l):
        # the closed forms skip the saturation check because construction makes it
        with pytest.raises(SaturationError):
            single_rate_config(lam_s, lam_l, duration=2.0)
