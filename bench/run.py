"""tddq benchmark runner.

    python3 bench/run.py --workload fig3-sweep --seed 1 --seconds 10 --trace 0

Runs one workload (or `all` of them, each in its own process) from the root
of a source checkout: `src/tddq` is imported from the checkout and nothing
else is built. With `--trace 0` it measures the end-to-end metrics listed in
BENCHMARK.json on untraced passes; with `--trace 1` it alternates untraced
and traced passes and reports the per-layer metrics, with spans written to
`bench/results/`. Either way the outputs of every pass are checked. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

where `attempted`/`failed` count the workload's operations and `correct` is
true when every check passed. A record with the environment, the seed, the
sample counts and the check counts goes to `bench/results/` as well.

End-to-end metrics (untraced passes only). Every time is host time scaled
to the reference host speed: a pass's host seconds times the pass's
host-speed factor, read from calibration samples spread over the pass (see
hostspeed.py), and the set-up times times the factor of samples taken
between the set-ups. The benchmark's host drifts by tens of percent
within minutes, so raw host times of identical work are not comparable
between runs; the raw times and the factors are kept in the record.

  wall_s            median seconds of one pass (the workload's timed section)
  setup_s           median, over SETUP_REPEATS fresh interpreters, of the
                    time from process start to `tddq` and `tddq.cli`
                    imported and the fig3 scenario loaded
  work_per_s        median per pass of work done per second: simulated
                    departures on fig3-sweep and trace-packets, closed-form
                    load points on closed-form
  op_ms_p50/_p99    percentiles of operation time within a pass, median over
                    passes. An operation is one run() point (18 per pass) on
                    fig3-sweep, the whole run (1 per pass) on trace-packets
                    and one load point's analytic triple (1024 per pass) on
                    closed-form; only closed-form has samples for a real p99
  peak_rss_mb       ru_maxrss of this process
  check_pass_ratio  checks passed over checks attempted (counts are printed)

Per-layer times (`--trace 1`) are raw host times: they are read as shares of
the same traced pass, which one host-speed factor would not change.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from hostspeed import HostSpeed
from tracer import Tracer, self_times
from workloads import WORKLOADS, Context

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_REPEATS = 5
SETUP_SAMPLES = 4  # calibration samples before, between and after the set-ups

SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); import tddq, tddq.cli; "
    "tddq.load_scenario({cfg!r}); print('ready', flush=True)"
)


def _die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load_package():
    """Import tddq from this checkout's src/, refusing any other copy."""
    src = ROOT / "src"
    if not (src / "tddq" / "__init__.py").is_file():
        _die(f"no tddq sources under {src}; run from a tddq checkout")
    if not (ROOT / "experiments" / "fig3.cfg").is_file():
        _die("experiments/fig3.cfg is missing")
    sys.path.insert(0, str(src))
    import tddq
    import tddq.cli

    if Path(tddq.__file__).resolve().parent != (src / "tddq").resolve():
        _die(f"imported tddq from {tddq.__file__}, not from {src}")
    return tddq


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# environment and set-up
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
    }


def _setup_cmd(*flags: str) -> list[str]:
    code = SETUP_CODE.format(src=str(ROOT / "src"), cfg=str(ROOT / "experiments" / "fig3.cfg"))
    return [sys.executable, *flags, "-c", code]


def measure_setup() -> float:
    """Seconds from starting a fresh interpreter to tddq, tddq.cli and the
    fig3 scenario being loaded."""
    t0 = perf_counter()
    with subprocess.Popen(_setup_cmd(), stdout=subprocess.PIPE, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if line.strip() != b"ready" or code != 0:
        raise RuntimeError(f"set-up process failed (exit {code})")
    return elapsed


def import_seconds() -> dict[str, float]:
    """Self import time summed per top-level package, from -X importtime."""
    proc = subprocess.run(_setup_cmd("-X", "importtime"), capture_output=True,
                          cwd=ROOT, timeout=120, check=True)
    totals: dict[str, float] = {}
    for line in proc.stderr.decode().splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        totals[top] = totals.get(top, 0.0) + int(self_us) / 1e6
    return totals


# ---------------------------------------------------------------------------
# per-layer metrics from one traced pass
# ---------------------------------------------------------------------------

class LayerCounters:
    """Hook targets: what the traced calls were asked to do and returned."""

    def __init__(self, tddq) -> None:
        self.tddq = tddq
        self.runs: list[dict] = []
        self.mc_samples = 0

    def hooks(self) -> dict:
        return {"sim.run": self.on_run, "analytic.ResidualModel.sample": self.on_sample}

    def on_run(self, a: dict, summary, seconds: float) -> None:
        horizon = a["horizon"]
        warmup = a["warmup"] if a["warmup"] is not None else horizon // 10
        rho = self.tddq.traffic.utilization(a["config"])[0]
        ci_rel = max((c.ci95 / c.mean for c in (summary.short, summary.long) if c.count),
                     default=0.0)
        trace_path = a["trace_path"]
        trace_bytes = trace_rows = 0
        if trace_path:
            data = Path(trace_path).read_bytes()
            trace_bytes, trace_rows = len(data), max(0, data.count(b"\n") - 1)
        self.runs.append({
            "topology": a["topology"].value, "horizon": horizon, "warmup": warmup,
            "seconds": seconds, "converged": summary.converged, "ci_rel": ci_rel,
            "little": summary.little_residual,
            "busy_err": abs(summary.mean_busy_fraction - rho),
            "packets": len(summary.packets) if summary.packets is not None else 0,
            "trace_rows": trace_rows, "trace_bytes": trace_bytes,
        })

    def on_sample(self, a: dict, result, seconds: float) -> None:
        self.mc_samples += int(result.size)


def layer_metrics(spans: list, counters: LayerCounters, wall: float) -> dict[str, float]:
    own = self_times(spans)
    layer_self = {layer: 0.0 for layer in ("traffic", "analytic", "sim", "cli")}
    for span, t in zip(spans, own):
        layer_self[span[3]] += t
    by_id = {s[0]: s for s in spans}
    entries = [s for s in spans
               if s[3] == "analytic" and (s[1] < 0 or by_id[s[1]][3] != "analytic")]
    covered = sum(s[5] - s[4] for s in spans if s[1] < 0)
    runs = counters.runs
    m = {
        "traffic.self_s": layer_self["traffic"],
        "traffic.moments_calls": sum(1 for s in spans if s[2] in (
            "traffic.long_service_moments", "traffic.utilization")),
        "analytic.calls": len(entries),
        "analytic.self_s": layer_self["analytic"],
        "analytic.call_us_p50": (statistics.median((s[5] - s[4]) * 1e6 for s in entries)
                                 if entries else 0.0),
        "analytic.mc_samples": counters.mc_samples,
        "sim.run_calls": sum(1 for s in spans if s[2] == "sim.run"),
        "sim.self_s": layer_self["sim"],
        "sim.departures": sum(r["horizon"] for r in runs),
        "sim.trace_rows": sum(r["trace_rows"] for r in runs),
        "sim.trace_bytes": sum(r["trace_bytes"] for r in runs),
        "sim.packets": sum(r["packets"] for r in runs),
        "cli.self_s": layer_self["cli"],
        "trace.uncovered_s": wall - covered,
        "trace.wall_s": wall,
    }
    for topo in ("coupled", "decoupled"):
        deps = sum(r["horizon"] for r in runs if r["topology"] == topo)
        secs = sum(r["seconds"] for r in runs if r["topology"] == topo)
        m[f"sim.{topo}.dep_per_s"] = deps / secs if secs else 0.0
    if runs:
        m["sim.useful_ratio"] = (sum(r["horizon"] - r["warmup"] for r in runs)
                                 / sum(r["horizon"] for r in runs))
        m["sim.converged_ratio"] = sum(r["converged"] for r in runs) / len(runs)
        m["sim.ci_rel_max"] = max(r["ci_rel"] for r in runs)
        m["sim.little_residual_max"] = max(r["little"] for r in runs)
        m["sim.busy_err_max"] = max(r["busy_err"] for r in runs)
    else:
        for name in ("sim.useful_ratio", "sim.converged_ratio", "sim.ci_rel_max",
                     "sim.little_residual_max", "sim.busy_err_max"):
            m[name] = 0.0
    return m


def aggregate(layers: list[dict]) -> dict[str, float]:
    """Per-layer metrics over traced passes: maxima stay maxima, ratios and
    rates are medians, counts and times are means per pass."""
    out = {}
    for key in layers[0]:
        values = [d[key] for d in layers]
        if key.endswith("_max"):
            out[key] = max(values)
        elif key.endswith(("_ratio", "dep_per_s", "_p50")):
            out[key] = statistics.median(values)
        else:
            out[key] = sum(values) / len(values)
    return out


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: int, trace: bool) -> int:
    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    tddq = load_package()
    workload = WORKLOADS[name]
    env = environment()
    # calibration samples between the set-ups give their host-speed factor
    speed = HostSpeed()
    setups = []
    for _ in range(SETUP_REPEATS):
        speed.sample(SETUP_SAMPLES)
        setups.append(measure_setup())
    speed.sample(SETUP_SAMPLES)
    setup_speed = speed.factor()
    imports = import_seconds() if trace else {}

    RESULTS.mkdir(exist_ok=True)
    tmp = RESULTS / f"tmp-{os.getpid()}"
    tmp.mkdir()
    fig3_cfg = str(ROOT / "experiments" / "fig3.cfg")
    ctx = Context(tddq=tddq, fig3_cfg=fig3_cfg, scenario=tddq.load_scenario(fig3_cfg), tmp=tmp,
                  speed=speed)
    tally = checks.Tally()
    plain: list[dict] = []  # untraced passes
    traced: list[dict] = []  # traced passes: wall and per-layer metrics
    first_spans: list = []
    attempted = failed = 0

    def one_pass(k: int, tracer=None) -> dict:
        nonlocal attempted, failed
        gc.collect()
        ctx.tracer = tracer
        if tracer is not None:
            tracer.install()
        try:
            p = workload.run_pass(ctx, seed * 1000 + k)
        finally:
            if tracer is not None:
                tracer.uninstall()
            ctx.tracer = None

        try:
            counts = workload.check(ctx, p, tally)
        except Exception as exc:  # noqa: BLE001 - a crashing check is a failed check
            traceback.print_exception(exc, file=sys.stderr)
            tally.add(f"{name}.check", (False, f"check raised {exc!r}"))
            counts = {}
        attempted += p.attempted
        failed += p.failed
        return {"wall": p.wall, "work_rate": p.work / p.work_time if p.work_time else 0.0,
                "ops_ms": p.ops_ms, "speed": p.speed, "counts": counts}

    try:
        t_start = perf_counter()
        k = 0
        while True:
            plain.append(one_pass(k))
            if trace:
                counters = LayerCounters(tddq)
                tracer = Tracer(tddq, counters.hooks())
                r = one_pass(k, tracer)
                r["layers"] = layer_metrics(tracer.spans, counters, r["wall"])
                r["layers"]["cli.csv_rows"] = r["counts"].get("cli.csv_rows", 0)
                traced.append(r)
                if not first_spans:
                    t0 = tracer.spans[0][4] if tracer.spans else 0.0
                    first_spans = [[s[0], s[1], s[2], s[3], s[4] - t0, s[5] - t0, s[6]]
                                   for s in tracer.spans]
                del tracer, counters
            k += 1
            # stop when one more pass would end more than half a pass late
            elapsed = perf_counter() - t_start
            if elapsed + elapsed / k / 2 > seconds:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    ops = [x for r in plain for x in r["ops_ms"]]
    samples = {"passes": len(plain), "ops": len(ops), "setups": len(setups),
               "traced_passes": len(traced)}
    if trace:
        layers = [r["layers"] for r in traced]
        metrics = aggregate(layers)
        traced_wall = sum(d["trace.wall_s"] for d in layers)
        metrics["trace.uncovered_ratio"] = (sum(d["trace.uncovered_s"] for d in layers)
                                            / traced_wall)
        # each traced pass follows an untraced pass over the same inputs
        metrics["trace.overhead_s"] = statistics.median(
            t["wall"] - p["wall"] for t, p in zip(traced, plain))
        for pkg in ("scipy", "numpy", "tddq"):
            metrics[f"setup.import_s.{pkg}"] = imports.get(pkg, 0.0)
    else:
        def per_pass(q: float) -> float:
            return statistics.median(
                float(np.percentile(r["ops_ms"] or [r["wall"] * 1e3], q)) * r["speed"]
                for r in plain)

        metrics = {
            "wall_s": statistics.median(r["wall"] * r["speed"] for r in plain),
            "setup_s": statistics.median(setups) * setup_speed,
            "work_per_s": statistics.median(r["work_rate"] / r["speed"] for r in plain),
            "op_ms_p50": per_pass(50),
            "op_ms_p99": per_pass(99),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "check_pass_ratio": ((tally.attempted - tally.failed) / tally.attempted
                                 if tally.attempted else 0.0),
        }
    missing = set(units) - set(metrics)
    if missing:
        _die(f"metrics not produced: {sorted(missing)}")
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, "samples": samples,
              "checks": {"attempted": tally.attempted, "failed": tally.failed,
                         "failures": tally.failures},
              "setup_s": setups, "setup_speed_factor": setup_speed,
              "pass_wall_s": [r["wall"] for r in plain],
              "pass_speed_factor": [r["speed"] for r in plain],
              "traced_pass_wall_s": [r["wall"] for r in traced], "result": result}
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        (RESULTS / f"spans-{name}-seed{seed}.json").write_text(json.dumps(
            {"workload": name, "seed": seed, "environment": env,
             "metrics": result["metrics"],
             "span_fields": ["id", "parent", "name", "layer", "start_s", "end_s", "op"],
             "spans": first_spans}) + "\n")

    print(f"workload {name}  seed {seed}  trace {int(trace)}  commit {env['commit']}  "
          f"nproc {env['nproc']}  cpu {env['cpu_model']!r}  python {env['python']}  "
          f"numpy {env['numpy']}  scipy {env['scipy']}")
    print("samples " + "  ".join(f"{k} {v}" for k, v in samples.items()))
    print(f"checks {tally.attempted} attempted, {tally.failed} failed; "
          f"operations {attempted} attempted, {failed} failed")
    for line in tally.failures:
        print(f"CHECK FAILED {line}")
    for key, m in result["metrics"].items():
        print(f"  {key:<28} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload, one process after another, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, cwd=ROOT, check=False, timeout=600)
        lines = proc.stdout.decode().strip().splitlines()
        if proc.returncode != 0 or not lines:
            _die(f"workload {name} exited {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
