"""CLI behaviour: CSV schemas, determinism, exit codes, validate paths."""

import csv
import hashlib
import math
import platform
import re
import threading
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from tddq import ResidualModel, Topology, cli, cycle_time_stats, load_scenario, sim
from tddq.cli import main

FIG3_CFG = str(Path(__file__).resolve().parents[1] / "experiments" / "fig3.cfg")
# sha256 of `sojourn-sweep --config experiments/fig3.cfg --horizon 20000 --seed 7`;
# a change that alters per-seed output on purpose updates it and says so
FIG3_SEED7_SHA256 = "48728f9f870357f2782abab8b3d4b7b21363f7dd4a9dc5789eb78f8f4c8ee54a"
# sha256 of `<command> --family <family> --rate 0.7 --s-long 10 --samples 20000
# --seed 5` (plus `--empirical-samples 0.5,2,7.5` for the empirical family);
# updated, like the fig3 digest, only by a change that alters output on purpose
RESIDUAL_SHA256 = {
    ("residual-cdf", "exponential"):
        "80a79e8d995ceeecfb8a76dd0068b633053eb62615c321e04d4965d6ec3db5ad",
    ("residual-cdf", "truncated-exponential"):
        "7eba60be8db8413eee7a5686cef6c89aba9f2ae5478df31e94b6b6027d6213aa",
    ("residual-cdf", "uniform"):
        "751e9f92f3557af03329768552ac0e4c421f46a26dc106f5edd85f24dd8772df",
    ("residual-cdf", "empirical"):
        "868f9563dc8db2d84912f35c9a4d551ddcb5a0be39c33b4898efde669ffe08f6",
    ("cycle-time", "exponential"):
        "b013dacd61c4c9fe494f83b2926c3b25cb18e38b1df69f120889e92d812a41cd",
    ("cycle-time", "truncated-exponential"):
        "32820707f1bf765c3b63aac11d09380006ee83c3144cccac87556cd66a5e0c74",
    ("cycle-time", "uniform"):
        "aca34bcddb91cec5fe44de211bf5505b0d17a086757fdeb9e75c467c315d21dd",
    ("cycle-time", "empirical"):
        "54c878c1a7c93c1249d6efbd43d0b3ce0e8ae8f373f53d791449d8ee6a7de644",
}

FIG3_LIKE = """
mean_snr_db  = 5
thresholds_db = 0, 10
long_ttis    = 15, 10, 2
mu_short     = 1
lambda_ratio = 4
rho          = 0.3, 0.5
"""


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSojournSweep:
    def test_csv_structure(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(["sojourn-sweep", "--rho", "0.3,0.5", "--horizon", "20000",
                   "--seed", "1", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 2 * 2 * 2  # rho x topology x class
        assert list(rows[0]) == ["rho", "class", "topology", "count", "analytic_mean",
                                 "sim_mean", "sim_ci95", "rel_err", "error"]
        for row in rows:
            assert row["class"] in ("short", "long")
            assert row["topology"] in ("coupled", "decoupled")
            assert int(row["count"]) > 0
            assert float(row["sim_mean"]) > 0
            assert float(row["rel_err"]) >= 0
            assert row["error"] == ""

    def test_decoupled_never_slower_rowwise(self, tmp_path):
        out = tmp_path / "sweep.csv"
        main(["sojourn-sweep", "--rho", "0.5,0.7", "--horizon", "60000",
              "--seed", "3", "--out", str(out)])
        rows = read_rows(out)
        sim = {(r["rho"], r["class"], r["topology"]): float(r["sim_mean"]) for r in rows}
        for rho in ("0.5", "0.7"):
            for kind in ("short", "long"):
                assert sim[(rho, kind, "decoupled")] < sim[(rho, kind, "coupled")]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["sojourn-sweep", "--rho", "0.4", "--horizon", "15000", "--seed", "42"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        out3 = tmp_path / "c.csv"
        assert main(["sojourn-sweep", "--rho", "0.4", "--horizon", "15000",
                     "--seed", "43", "--out", str(out3)]) == 0
        assert out1.read_bytes() != out3.read_bytes()

    def test_fig3_output_matches_recorded_digest(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert main(["sojourn-sweep", "--config", FIG3_CFG, "--horizon", "20000",
                     "--seed", "7", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG3_SEED7_SHA256

    def test_sweeps_and_runs_in_this_process(self, tmp_path, monkeypatch):
        # the benchmark reads each sweep by wrapping cli.sweep (the topology
        # is its second positional argument) and times each run by wrapping
        # sim.run; both must see every call, in this thread. The sweep goes
        # point by point, coupled then decoupled, one load point per call
        topologies, covered, run_threads = [], [], []

        def wrap_sweep(sweep):
            def wrapper(*args, **kwargs):
                topologies.append(args[1])
                result = sweep(*args, **kwargs)
                assert len(args[2]) == len(result) == 1
                covered.extend((args[1], point.rho) for point in result)
                return result
            return wrapper

        def wrap_run(run):
            def wrapper(*args, **kwargs):
                run_threads.append(threading.get_ident())
                return run(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "sweep", wrap_sweep(cli.sweep))
        monkeypatch.setattr(sim, "run", wrap_run(sim.run))
        assert main(["sojourn-sweep", "--config", FIG3_CFG, "--horizon", "2000",
                     "--out", str(tmp_path / "fig3.csv")]) == 0
        assert topologies == [Topology.COUPLED, Topology.DECOUPLED] * 9
        rhos = load_scenario(FIG3_CFG).rho_list
        assert len(covered) == len(set(covered)) == 2 * len(rhos) == 18
        assert set(covered) == {(topo, rho) for topo in Topology for rho in rhos}
        assert run_threads == [threading.get_ident()] * 18

    def test_each_point_draws_once_for_both_topologies(self, tmp_path, monkeypatch):
        # the decoupled run at each point takes the coupled run's draws, so
        # 9 points x 2 classes draw 18 times, not 36; the last point's draws
        # stay held
        draws = []

        def counting(*args):
            draws.append(args)
            return draw(*args)

        draw = sim._draw
        monkeypatch.setattr(sim, "_draw_slot", [])  # nothing held from an earlier run
        monkeypatch.setattr(sim, "_draw", counting)
        assert main(["sojourn-sweep", "--config", FIG3_CFG, "--horizon", "2000",
                     "--out", str(tmp_path / "fig3.csv")]) == 0
        assert len(draws) == 18
        [(key, _)] = sim._draw_slot
        assert key[0] == 12345 + 8  # the default seed of the ninth point

    def test_sweep_allocates_one_block_per_draw_and_per_run_sojourns(self, tmp_path,
                                                                      monkeypatch):
        # a class's arrivals and services are the rows of one read-only
        # block, and a run's two sojourn buffers the parts of one, so that the
        # allocator can hand each block on whole; the slot holds only the last
        # point's key and draws, and a run without a seed leaves it empty
        draws, schedules = [], []
        draw, schedule = sim._draw, sim._Schedule
        monkeypatch.setattr(sim, "_draw_slot", [])
        monkeypatch.setattr(sim, "_draw", lambda *args: draws.append(draw(*args)) or draws[-1])
        monkeypatch.setattr(sim, "_Schedule",
                            lambda *args: schedules.append(schedule(*args)) or schedules[-1])
        assert main(["sojourn-sweep", "--config", FIG3_CFG, "--horizon", "20000",
                     "--out", str(tmp_path / "fig3.csv")]) == 0
        assert len(draws) == len(schedules) == 18
        for d in draws:
            block = d.arrivals.base
            assert d.services.base is block and block.shape == (2, len(d.arrivals))
            assert not any(a.flags.writeable for a in (block, d.arrivals, d.services))
        for s in schedules:
            block = s.soj_s.base
            assert s.soj_l.base is block and len(block) == len(s.soj_s) + len(s.soj_l)
        [(key, held)] = sim._draw_slot
        assert key[0] == 12345 + 8 and held[0] is draws[-2] and held[1] is draws[-1]
        sim.run(load_scenario(FIG3_CFG).config_for(0.7), Topology.COUPLED, 2_000, seed=None)
        assert sim._draw_slot == []

    def test_warm_sweeps_take_no_fresh_pages(self, tmp_path):
        # a run's draws, sojourns and records are a few blocks each, which
        # glibc's allocator hands whole to the next run: a warm fig3 sweep at
        # 200 k departures takes single-digit minor page faults, where an
        # array per class and column took ~8,800
        if platform.libc_ver()[0] != "glibc":
            pytest.skip("measures glibc's allocator")
        if sim._kernel().schedule is sim._schedule_py:
            pytest.skip("no working C compiler")  # the Python twins take ~130 k per sweep
        import resource

        faults = []
        for _ in range(3):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert main(["sojourn-sweep", "--config", FIG3_CFG, "--horizon", "200000",
                         "--out", str(tmp_path / "fig3.csv")]) == 0
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert faults[2] < 500, faults

    def test_longer_held_draws_are_taken(self, tmp_path, monkeypatch):
        # drawing 1.01x of each class's share, one point's coupled run runs
        # short and draws again at twice the size; its decoupled run takes
        # those longer draws instead of drawing both sizes again (24 draws)
        argv = ["sojourn-sweep", "--config", FIG3_CFG, "--horizon", "20000", "--seed", "3"]
        default, small = tmp_path / "default.csv", tmp_path / "small.csv"
        assert main([*argv, "--out", str(default)]) == 0
        draws = []
        draw = sim._draw
        monkeypatch.setattr(sim, "_draw_slot", [])
        monkeypatch.setattr(sim, "_initial_draws",
                            lambda horizon, share: max(1, int(horizon * share * 1.01)))
        monkeypatch.setattr(sim, "_draw", lambda *args: draws.append(args) or draw(*args))
        assert main([*argv, "--out", str(small)]) == 0
        assert len(draws) == 20
        assert small.read_bytes() == default.read_bytes()

    def test_empty_rho_list_gives_header_only(self, tmp_path):
        out = tmp_path / "empty.csv"
        assert main(["sojourn-sweep", "--rho", "", "--out", str(out)]) == 0
        lines = out.read_bytes().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(b"rho,class,topology")

    def test_short_only_mix_reports_zero_long_count(self, tmp_path):
        cfg = tmp_path / "short_only.cfg"
        cfg.write_text("lambda_ratio = 0\nrho = 0.5\n")
        out = tmp_path / "out.csv"
        assert main(["sojourn-sweep", "--config", str(cfg), "--horizon", "20000",
                     "--out", str(out)]) == 0
        rows = {(r["class"], r["topology"]): r for r in read_rows(out)}
        for topo in ("coupled", "decoupled"):
            short = rows[("short", topo)]
            assert int(short["count"]) > 0 and float(short["sim_mean"]) > 0
            long_row = rows[("long", topo)]
            assert int(long_row["count"]) == 0
            assert long_row["sim_mean"] == ""
            assert long_row["rel_err"] == ""
            assert float(long_row["analytic_mean"]) > 0  # hypothetical long packet

    def test_too_few_batches_leave_ci_empty(self, tmp_path):
        out = tmp_path / "out.csv"
        assert main(["sojourn-sweep", "--rho", "0.5", "--horizon", "60", "--seed", "1",
                     "--out", str(out)]) == 0
        row = {(r["class"], r["topology"]): r for r in read_rows(out)}[("short", "coupled")]
        assert 0 < int(row["count"]) < sim.N_BATCHES
        assert float(row["sim_mean"]) > 0
        assert row["sim_ci95"] == ""

    def test_config_file_drives_rho_list(self, tmp_path):
        cfg = tmp_path / "two_points.cfg"
        cfg.write_text(FIG3_LIKE)
        out = tmp_path / "out.csv"
        assert main(["sojourn-sweep", "--config", str(cfg), "--horizon", "10000",
                     "--out", str(out)]) == 0
        assert sorted({r["rho"] for r in read_rows(out)}) == ["0.3", "0.5"]

    def test_rho_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "two_points.cfg"
        cfg.write_text(FIG3_LIKE)
        out = tmp_path / "out.csv"
        assert main(["sojourn-sweep", "--config", str(cfg), "--rho", "0.4",
                     "--horizon", "10000", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 2 * 2  # topology x class
        assert {r["rho"] for r in rows} == {"0.4"}

    def test_rfc4180_crlf_and_nine_significant_digits(self, tmp_path):
        out = tmp_path / "fmt.csv"
        main(["sojourn-sweep", "--rho", "0.3", "--horizon", "10000", "--out", str(out)])
        data = out.read_bytes()
        assert b"\r\n" in data
        row = read_rows(out)[0]
        assert row["analytic_mean"] == format(float(row["analytic_mean"]), ".9g")


class TestResidualCdf:
    def test_exponential_columns(self, tmp_path):
        out = tmp_path / "res.csv"
        rc = main(["residual-cdf", "--family", "exponential", "--rate", "1",
                   "--s-long", "10", "--grid-step", "0.5", "--samples", "100000",
                   "--seed", "9", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert list(rows[0]) == ["y", "cdf_coupled", "cdf_decoupled",
                                 "empirical_coupled", "empirical_decoupled"]
        assert len(rows) == 21  # 0.0 .. 10.0 inclusive
        first = rows[0]
        assert all(float(first[k]) == 0.0 for k in list(first)[1:])
        for row in rows:
            y = float(row["y"])
            assert float(row["cdf_decoupled"]) == pytest.approx(
                1.0 - math.exp(-2.0 * y), abs=1e-9
            )
            assert float(row["cdf_decoupled"]) >= float(row["cdf_coupled"])
            # Glivenko-Cantelli: max grid gap < 0.01 at 10^5 samples
            assert abs(float(row["empirical_coupled"]) - float(row["cdf_coupled"])) < 0.01
            assert abs(float(row["empirical_decoupled"]) - float(row["cdf_decoupled"])) < 0.01

    @pytest.mark.parametrize("model, flags", [
        (ResidualModel("exponential", 10.0, rate=0.7), ["--rate", "0.7"]),
        (ResidualModel("truncated-exponential", 10.0, rate=0.7), ["--rate", "0.7"]),
        (ResidualModel("uniform", 10.0), []),
        (ResidualModel("empirical", 10.0, samples=(0.5, 2.0, 7.5)),
         ["--empirical-samples", "0.5,2,7.5"]),
    ], ids=["exponential", "truncated-exponential", "uniform", "empirical"])
    def test_empirical_decoupled_is_min_of_two(self, tmp_path, model, flags):
        n, seed = 5000, 21
        out = tmp_path / "res.csv"
        assert main(["residual-cdf", "--family", model.family, *flags, "--s-long", "10",
                     "--samples", str(n), "--seed", str(seed), "--out", str(out)]) == 0
        rng = np.random.default_rng(seed)
        model.sample(rng, n)  # the empirical_coupled draw comes first
        decoupled = np.sort(model.sample(rng, (n, 2)).min(axis=1))
        grid = np.arange(0.0, 10.0 + 0.05, 0.1)  # the default --grid-step
        expected = [format(float(np.searchsorted(decoupled, y, side="right") / n), ".9g")
                    for y in grid]
        assert [r["empirical_decoupled"] for r in read_rows(out)] == expected

    def test_uniform_family(self, tmp_path):
        out = tmp_path / "res.csv"
        assert main(["residual-cdf", "--family", "uniform", "--s-long", "4",
                     "--grid-step", "1", "--samples", "20000", "--out", str(out)]) == 0
        rows = read_rows(out)
        assert [float(r["cdf_coupled"]) for r in rows] == pytest.approx([0, 0.25, 0.5, 0.75, 1])

    def test_unknown_family_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["residual-cdf", "--family", "weibull", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--grid-step", "0"],
        ["--grid-step", "-1"],
    ], ids=["grid-step-0", "grid-step-negative"])
    def test_degenerate_inputs_rejected(self, tmp_path, capsys, flags):
        out = tmp_path / "res.csv"
        assert main(["residual-cdf", *flags, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, family", sorted(RESIDUAL_SHA256))
def test_residual_output_matches_recorded_digest(tmp_path, command, family):
    out = tmp_path / "out.csv"
    flags = ["--family", family, "--rate", "0.7", "--s-long", "10",
             "--samples", "20000", "--seed", "5"]
    if family == "empirical":
        flags += ["--empirical-samples", "0.5,2,7.5"]
    assert main([command, *flags, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == RESIDUAL_SHA256[(command, family)]


class TestCycleTime:
    def test_degenerate_residual(self, tmp_path):
        out = tmp_path / "cyc.csv"
        rc = main(["cycle-time", "--family", "empirical", "--empirical-samples", "0",
                   "--s-short", "1", "--t-proc", "2", "--samples", "2000",
                   "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert [r["topology"] for r in rows] == ["coupled", "decoupled"]
        for row in rows:
            for col in ("mean", "p50", "p90", "p99", "p999"):
                assert float(row[col]) == pytest.approx(4.0)

    @pytest.mark.parametrize("n", [1, 2, 999, 1000])
    def test_quantiles_are_those_of_the_unsorted_draws(self, tmp_path, n):
        out = tmp_path / "cyc.csv"
        assert main(["cycle-time", "--family", "truncated-exponential", "--rate", "0.7",
                     "--samples", str(n), "--seed", "11", "--out", str(out)]) == 0
        model = ResidualModel("truncated-exponential", 10.0, rate=0.7)
        rng = np.random.default_rng(11)
        for row, topo in zip(read_rows(out), (Topology.COUPLED, Topology.DECOUPLED)):
            mean, samples = cycle_time_stats(model, 1.0, 2.0, topo is Topology.DECOUPLED,
                                             n, rng)
            want = np.quantile(samples, [0.5, 0.9, 0.99, 0.999])
            assert row["topology"] == topo.value
            assert row["mean"] == cli._fmt(mean)
            assert [row[q] for q in ("p50", "p90", "p99", "p999")] == [
                cli._fmt(float(x)) for x in want]

    def test_uniform_order_statistics(self, tmp_path):
        out = tmp_path / "cyc.csv"
        assert main(["cycle-time", "--family", "uniform", "--s-long", "10",
                     "--s-short", "1", "--t-proc", "2", "--samples", "200000",
                     "--seed", "4", "--out", str(out)]) == 0
        rows = {r["topology"]: r for r in read_rows(out)}
        assert float(rows["coupled"]["mean"]) == pytest.approx(14.0, rel=0.01)
        assert float(rows["decoupled"]["mean"]) == pytest.approx(2 * (1 + 10 / 3) + 2, rel=0.01)
        for q in ("p50", "p90", "p99", "p999"):
            assert float(rows["decoupled"][q]) <= float(rows["coupled"][q])


class TestValidate:
    def test_default_passes(self, capsys):
        rc = main(["validate", "--horizon", "120000"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "all 5 checks passed" in out
        assert "FAIL" not in out

    def test_saturated_config_reported(self, tmp_path, capsys):
        cfg = tmp_path / "broken.cfg"
        cfg.write_text("rho = 0.5, 1.3\n")
        rc = main(["validate", "--config", str(cfg), "--horizon", "60000"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "load-points-stable" in out
        assert "FAIL" in out

    def test_saturated_rho_flag_reported(self, capsys):
        rc = main(["validate", "--rho", "0.5,1.3", "--horizon", "60000"])
        out = capsys.readouterr().out
        assert rc == 1
        assert re.search(r"^load-points-stable\s+FAIL\s+rho=1.3", out, re.MULTILINE)
        # with no stable point the conservation check has no run to make
        rc = main(["validate", "--rho", "1.5", "--horizon", "20000"])
        out = capsys.readouterr().out
        assert rc == 1
        assert re.search(r"^littles-law-and-busy\s+FAIL\s+rho=1.5: ", out, re.MULTILINE)

    def test_out_writes_report(self, tmp_path, capsys):
        out = tmp_path / "validate.txt"
        assert main(["validate", "--horizon", "120000", "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        report = out.read_text()
        assert re.search(r"^mm1-sanity\s+PASS", report, re.MULTILINE)
        assert report.endswith("all 5 checks passed\n")

    def test_short_horizon_passes(self, capsys):
        # the default seed, as CI runs it: the M/M/1 mean reads 2.0516 here,
        # 2.6% off 2.0 but 0.47 ci95 half widths of a 20 000-departure run
        rc = main(["validate", "--horizon", "20000"])
        out = capsys.readouterr().out
        assert re.search(r"^mm1-sanity\s+PASS .* z = \+0\.47 ", out, re.MULTILINE)
        assert re.search(r"^littles-law-and-busy\s+PASS", out, re.MULTILINE)
        assert rc == 0

    @pytest.mark.parametrize("horizon", ["20000", "200000"])
    def test_slower_exponential_service_fails(self, monkeypatch, capsys, horizon):
        # service mean x1.1: the M/M/1 mean becomes 1.1/(1 - 0.55) = 2.44
        exponential = sim._exponential_services
        monkeypatch.setattr(sim, "_exponential_services", lambda mean: exponential(mean * 1.1))
        monkeypatch.setattr(sim, "_draw_slot", [])  # no draws made without the change
        rc = main(["validate", "--horizon", horizon])
        out = capsys.readouterr().out
        assert re.search(r"^mm1-sanity\s+FAIL", out, re.MULTILINE)
        assert rc == 1

    def test_nan_ci_fails(self, monkeypatch, capsys):
        def without_ci(*args, run=cli.run, **kwargs):
            summary = run(*args, **kwargs)
            return replace(summary, short=replace(summary.short, ci95=math.nan))

        monkeypatch.setattr(cli, "run", without_ci)
        rc = main(["validate", "--horizon", "20000"])
        out = capsys.readouterr().out
        assert re.search(r"^mm1-sanity\s+FAIL .*ci95 nan", out, re.MULTILINE)
        assert rc == 1

    def test_shifted_busy_fraction_fails(self, monkeypatch, capsys):
        def shifted(*args, run=cli.run, **kwargs):
            summary = run(*args, **kwargs)
            return replace(summary, busy_fraction=tuple(b + 0.02 for b in summary.busy_fraction))

        monkeypatch.setattr(cli, "run", shifted)
        rc = main(["validate"])
        out = capsys.readouterr().out
        assert re.search(r"^littles-law-and-busy\s+FAIL", out, re.MULTILINE)
        assert rc == 1

    def test_decreasing_cdf_fails_dominance(self, monkeypatch, capsys):
        def decreasing(model, grid, decoupled, cdf=cli.residual_cdf):
            return 1.0 - np.asarray(cdf(model, grid, decoupled=decoupled))

        monkeypatch.setattr(cli, "residual_cdf", decreasing)
        rc = main(["validate", "--horizon", "20000"])
        out = capsys.readouterr().out
        assert re.search(r"^residual-dominance\s+FAIL\s+dominance violated for family "
                         r"exponential", out, re.MULTILINE)
        assert rc == 1

    def test_tampered_tolerance_fails(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_MM1_HALF_WIDTHS", 1e-9)
        rc = main(["validate", "--horizon", "60000"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "mm1-sanity" in out and "FAIL" in out


class TestBadInput:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus = 1\n")
        rc = main(["sojourn-sweep", "--config", str(cfg), "--out", "-"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sojourn-sweep", "validate"])
    def test_repeated_config_key(self, tmp_path, capsys, command):
        cfg = tmp_path / "twice.cfg"
        cfg.write_text("rho = 0.5\nlambda_ratio = 4\nrho = 0.3\n")
        out = tmp_path / "x.out"
        rc = main([command, "--config", str(cfg), "--horizon", "2000", "--out", str(out)])
        assert rc == 2
        assert "error: line 3: key 'rho' already set on line 1" in capsys.readouterr().err
        assert not out.exists()

    def test_rho_out_of_range(self, capsys):
        rc = main(["sojourn-sweep", "--rho", "1.5", "--out", "-"])
        assert rc == 2

    def test_rho_out_of_range_in_config(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("rho = 0.5, 1.2\n")
        out = tmp_path / "x.csv"
        rc = main(["sojourn-sweep", "--config", str(cfg), "--out", str(out)])
        assert rc == 2
        assert "error: rho values must lie in (0, 1), got 1.2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sojourn-sweep", "validate"])
    def test_slot_misaligned_scenario(self, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("long_ttis = 15, 10, 2.5\n")
        out = tmp_path / "x.out"
        rc = main([command, "--config", str(cfg), "--horizon", "2000", "--out", str(out)])
        assert rc == 2
        assert "not a whole number of slots" in capsys.readouterr().err
        assert not out.exists()

    def test_vanishing_traffic(self, tmp_path, capsys):
        # a 1e150-slot TTI makes arrivals so sparse that time passes 2**53 slots:
        # validate's run fails as bad input, the sweep records it per point
        cfg = tmp_path / "sparse.cfg"
        cfg.write_text("long_ttis = 1e150\nthresholds_db =\nrho = 0.5\n")
        assert main(["validate", "--config", str(cfg), "--horizon", "2000"]) == 2
        assert "error: vanishing traffic" in capsys.readouterr().err
        out = tmp_path / "x.csv"
        assert main(["sojourn-sweep", "--config", str(cfg), "--horizon", "2000",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        assert len(rows) == 4
        assert all(row["error"].startswith("vanishing traffic") for row in rows)

    @pytest.mark.parametrize("argv", [
        ["residual-cdf", "--horizon", "10"],
        ["cycle-time", "--config", "x.cfg"],
    ], ids=["residual-cdf-horizon", "cycle-time-config"])
    def test_scenario_flags_only_on_simulating_commands(self, tmp_path, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [[], ["no-such-command"], ["validate", "--no-such-flag"]],
                             ids=["no-subcommand", "unknown-subcommand", "unknown-flag"])
    def test_argparse_errors_exit_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, flag", [
        (["sojourn-sweep", "--rho", "abc"], "--rho"),
        (["sojourn-sweep", "--rho", "0.3,x"], "--rho"),
        (["residual-cdf", "--family", "empirical", "--empirical-samples", "abc"],
         "--empirical-samples"),
        (["cycle-time", "--samples", "0"], "--samples"),
        (["cycle-time", "--samples", "many"], "--samples"),
        (["residual-cdf", "--samples", "0"], "--samples"),
        (["residual-cdf", "--samples", "-5"], "--samples"),
        (["sojourn-sweep", "--horizon", "0"], "--horizon"),
        (["validate", "--horizon", "-5"], "--horizon"),
        (["sojourn-sweep", "--warmup", "-1"], "--warmup"),
    ], ids=["rho-word", "rho-list-entry", "empirical-samples-word",
            "cycle-samples-0", "cycle-samples-word", "residual-samples-0",
            "residual-samples-negative", "sweep-horizon-0",
            "validate-horizon-negative", "sweep-warmup-negative"])
    def test_malformed_number_names_flag(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["sojourn-sweep", "residual-cdf", "cycle-time",
                                         "validate"])
    def test_negative_seed_names_flag(self, tmp_path, capsys, command):
        # numpy refuses negative seeds; the sweep used to write that refusal
        # in every row and exit 0
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main([command, "--seed", "-1", "--out", str(out)])
        assert exc.value.code == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("horizon, warmup", [("100", "100"), ("100", "150")],
                             ids=["equal", "above"])
    def test_warmup_must_be_below_horizon(self, tmp_path, capsys, horizon, warmup):
        out = tmp_path / "x.csv"
        rc = main(["sojourn-sweep", "--horizon", horizon, "--warmup", warmup,
                   "--out", str(out)])
        assert rc == 2
        assert "error: --warmup" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, field", [
        ("mu_short = inf", "mu_short"),
        ("long_ttis = 15, 0, 2", "durations"),
        ("lambda_ratio = nan", "lambda_ratio"),
        ("thresholds_db = 0, nan", "thresholds"),
        ("mean_snr_db = 4000", "mean_snr_db"),
        ("thresholds_db = 0, 4000", "thresholds_db"),
        ("long_ttis = 1e300\nthresholds_db =\nmu_short = 1e10", "rates"),
        ("long_ttis = 1e150\nthresholds_db =\nmu_short = 1e160", "long TTI"),
        ("mu_short = 1e-310", "mu_short"),
        ("mu_short = 1e-12", "long TTI"),
        ("long_ttis = 1e305\nthresholds_db =", "rates"),
        ("long_ttis = 1e160\nthresholds_db =", "rates"),
    ])
    def test_nonfinite_or_zero_scenario_values(self, tmp_path, capsys, line, field):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        out = tmp_path / "x.csv"
        rc = main(["sojourn-sweep", "--config", str(cfg), "--rho", "0.5",
                   "--horizon", "2000", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, field", [
        (["cycle-time", "--family", "empirical", "--empirical-samples", "1,nan,3",
          "--s-long", "10"], "samples"),
        (["cycle-time", "--t-proc", "nan"], "t_proc"),
        (["cycle-time", "--family", "uniform", "--s-long", "inf"], "s_long_max"),
        (["cycle-time", "--s-short", "inf"], "s_short"),
        (["cycle-time", "--family", "exponential", "--rate", "inf"], "rate"),
        (["residual-cdf", "--family", "empirical", "--empirical-samples", "1,nan,3"],
         "samples"),
        (["residual-cdf", "--family", "empirical", "--empirical-samples", "1,2",
          "--s-long", "1"], "samples"),
        (["residual-cdf", "--family", "empirical", "--empirical-samples", "1",
          "--s-long", "nan"], "s_long_max must be positive"),
        (["residual-cdf", "--family", "empirical", "--empirical-samples", "1",
          "--s-long", "-1"], "s_long_max must be positive"),
        (["cycle-time", "--family", "uniform", "--s-long", "1e308"], "not finite"),
        (["cycle-time", "--family", "exponential", "--rate", "1e-307"], "not finite"),
        (["cycle-time", "--family", "empirical", "--empirical-samples", "1e308,1e308"],
         "samples"),
        (["cycle-time", "--family", "empirical", "--empirical-samples", "1e308,1e308",
          "--s-long", "1e308"], "not finite"),
    ], ids=["cycle-empirical-nan", "cycle-t-proc-nan", "cycle-uniform-s-long-inf",
            "cycle-s-short-inf", "cycle-rate-inf", "residual-empirical-nan",
            "residual-empirical-above-s-long", "residual-empirical-s-long-nan",
            "residual-empirical-s-long-negative", "cycle-uniform-overflow",
            "cycle-exponential-overflow", "cycle-empirical-above-s-long",
            "cycle-empirical-overflow"])
    def test_nonfinite_residual_values(self, tmp_path, capsys, argv, field):
        out = tmp_path / "x.csv"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not out.exists()

    @pytest.mark.parametrize("step", ["inf", "nan", "1e-300", "1e-9", "9.9e-7"])
    def test_grid_step_too_fine_or_not_finite(self, tmp_path, capsys, monkeypatch, step):
        # rejected before the Monte Carlo draws or the grid are allocated:
        # at 1e-9 the grid alone would take 80 GB
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before rejecting --grid-step")

        monkeypatch.setattr(ResidualModel, "sample", no_sampling)
        out = tmp_path / "res.csv"
        assert main(["residual-cdf", "--s-long", "10", "--grid-step", step,
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--grid-step" in err
        assert not out.exists()

    def test_missing_config_file(self, capsys):
        rc = main(["sojourn-sweep", "--config", "/nonexistent/x.cfg", "--out", "-"])
        assert rc == 2

    def test_unwritable_output(self, capsys):
        rc = main(["sojourn-sweep", "--rho", "0.3", "--horizon", "2000",
                   "--out", "/nonexistent-dir/out.csv"])
        assert rc == 2

    def test_stdout_output(self, capsys):
        rc = main(["sojourn-sweep", "--rho", "0.3", "--horizon", "5000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("rho,class,topology")
