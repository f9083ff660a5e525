"""Time the compiled trace writer of two `_schedule.c` sources on one trace.

    PYTHONPATH=src python3 experiments/trace_writer_timing.py OTHER.c [--reps 40]

Builds the working tree's `src/tddq/_schedule.c` and OTHER.c (for example
the parent commit's, from `git show HEAD~1:src/tddq/_schedule.c`) with the
kernel's own build, `sim._build_kernel`. A source from before the merge's
tail table has no `tddq_trace_init`; its copy gets an empty one, so that
the same build loads it. Then it makes the trace-packets workload's trace
input once (fig3, rho 0.7, decoupled, 200 k departures, seed 3), checks
that both builds write the same bytes, and times each writing it to
/dev/null, alternating which build goes first. It prints each build's min
and quartiles in ms: the writer's part of the "trace/packet output" layer,
without the file system's. Not part of Tier-1: one run of 40 reps takes
about 10 s on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import filecmp
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

from tddq import sim
from tddq.traffic import load_scenario

ROOT = Path(__file__).resolve().parent.parent
FIG3 = ROOT / "experiments" / "fig3.cfg"
RHO, HORIZON, SEED = 0.7, 200_000, 3  # as bench/workloads.py's trace-packets


def build(source: Path, copy: Path) -> sim._Kernel:
    """`source`, copied to `copy`, built and loaded as run() builds its kernel."""
    text = source.read_text()
    if "tddq_trace_init" not in text:
        text += "\nvoid tddq_trace_init(void) {}\n"
    copy.write_text(text)
    with mock.patch.object(sim, "_SOURCE", copy):
        kernel = sim._build_kernel.__wrapped__()
    if kernel.write_trace is sim._write_trace:
        sys.exit(f"{source} did not build")
    return kernel


def trace_input() -> tuple:
    """The arguments run() hands its trace writer in one trace-packets pass."""
    config = load_scenario(str(FIG3)).config_for(RHO)
    calls = []
    recording = sim._kernel()._replace(write_trace=lambda *args: calls.append(args))
    with mock.patch.object(sim, "_kernel", lambda: recording):
        sim.run(config, sim.Topology.DECOUPLED, HORIZON, seed=SEED, trace_path=os.devnull)
    (args,) = calls
    return args[1:]  # all but the path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("other", type=Path, help="a second _schedule.c to time against")
    parser.add_argument("--reps", type=int, default=40, help="timed writes per build")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="tddq-timing-") as tmp:
        tmp = Path(tmp)
        names = ("working tree", str(args.other))
        writers = [build(source, tmp / f"{i}.c").write_trace
                   for i, source in enumerate((sim._SOURCE, args.other))]
        inputs = trace_input()
        for i, write in enumerate(writers):
            write(str(tmp / f"{i}.csv"), *inputs)
        if not filecmp.cmp(tmp / "0.csv", tmp / "1.csv", shallow=False):
            sys.exit("the two builds write different bytes")
        size = (tmp / "0.csv").stat().st_size

    times: list[list[float]] = [[], []]
    for rep in range(args.reps):
        for i in (0, 1) if rep % 2 == 0 else (1, 0):
            t0 = time.perf_counter()
            writers[i](os.devnull, *inputs)
            times[i].append(time.perf_counter() - t0)

    print(f"same {size} bytes from both builds; ms over {args.reps} writes each to /dev/null")
    print(f"{'build':<40} {'min':>7} {'q1':>7} {'median':>7} {'q3':>7}")
    for name, ts in zip(names, times):
        q1, med, q3 = statistics.quantiles(ts, n=4)
        print(f"{name:<40} " + " ".join(f"{1e3 * v:7.2f}" for v in (min(ts), q1, med, q3)))
    print(f"median ratio, working tree / other: "
          f"{statistics.median(times[0]) / statistics.median(times[1]):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
