"""Correctness checks on the outputs of the benchmark workloads.

Every check is a pure function of plain data (CSV text, numpy arrays,
per-point numbers) and returns ``(ok, detail)``. The workloads feed them the
program's outputs; ``test_bench_checks.py`` feeds them deliberately wrong
inputs to show that each one can fail.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

# coupled sim mean vs boundary-exact closed form: |sim - exact| <= K * ci95
CI_BAND_K = 3.0
# decoupled sim mean vs the two-server approximation (acceptance criterion 4)
MG2_BAND = 0.25
LITTLE_TOL = 0.01
BUSY_TOL = 0.01
# per-column false-alarm probability of the DKW band
DKW_ALPHA = 1e-9

SWEEP_HEADER = ["rho", "class", "topology", "count", "analytic_mean",
                "sim_mean", "sim_ci95", "rel_err", "error"]
RESIDUAL_HEADER = ["y", "cdf_coupled", "cdf_decoupled",
                   "empirical_coupled", "empirical_decoupled"]
CYCLE_HEADER = ["topology", "mean", "p50", "p90", "p99", "p999"]


class Tally:
    """Counts checks attempted and failed, and keeps the failures' details."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def add(self, name: str, result: tuple[bool, str]) -> bool:
        ok, detail = result
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")
        return ok


def read_csv(text: str, header: list[str]) -> list[dict[str, str]] | None:
    """Rows of a CSV as dicts, or None when the header is not `header`."""
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != header:
        return None
    return [dict(zip(header, row)) for row in reader]


def _float(s: str) -> float:
    return float(s) if s != "" else math.nan


# ---------------------------------------------------------------------------
# fig3-sweep
# ---------------------------------------------------------------------------

def sweep_csv_shape(text: str, n_rho: int) -> tuple[bool, str]:
    """Header, 2 topologies x 2 classes rows per load point, all filled in."""
    rows = read_csv(text, SWEEP_HEADER)
    if rows is None:
        return False, "header mismatch"
    want = 4 * n_rho
    if len(rows) != want:
        return False, f"{len(rows)} data rows, want {want}"
    short = [r for r in rows if any(v == "" for k, v in r.items() if k != "error")]
    if short:
        return False, f"{len(short)} rows with empty fields"
    return True, f"{want} rows"


def sweep_csv_errors_empty(text: str) -> tuple[bool, str]:
    rows = read_csv(text, SWEEP_HEADER)
    if rows is None:
        return False, "header mismatch"
    bad = [r for r in rows if r["error"]]
    if bad:
        return False, f"{len(bad)} rows report an error, first: {bad[0]['error']!r}"
    return True, "error column empty"


def coupled_matches_slotted(text: str, exact: dict[tuple[float, str], float],
                            k: float = CI_BAND_K) -> tuple[bool, str]:
    """Coupled sim means within k batch-means CI half widths of the exact form.

    `exact` maps (rho, class) to `mg1_priority_sojourn_slotted` means. The
    paper's short-class form is not used: it is biased for the slotted
    scheduler (the documented known red of acceptance criterion 2).
    """
    rows = read_csv(text, SWEEP_HEADER)
    if rows is None:
        return False, "header mismatch"
    seen = 0
    worst = 0.0
    for r in rows:
        if r["topology"] != "coupled":
            continue
        key = (float(r["rho"]), r["class"])
        if key not in exact:
            return False, f"unexpected row {key}"
        mean, ci = _float(r["sim_mean"]), _float(r["sim_ci95"])
        if not (math.isfinite(mean) and math.isfinite(ci) and ci > 0):
            return False, f"{key}: mean {mean}, ci95 {ci}"
        z = abs(mean - exact[key]) / ci
        worst = max(worst, z)
        if z > k:
            return False, f"{key}: sim {mean:.6g} vs exact {exact[key]:.6g} = {z:.2f} ci95"
        seen += 1
    if seen != len(exact):
        return False, f"{seen} coupled rows for {len(exact)} expected"
    return True, f"worst {worst:.2f} ci95 (band {k:g})"


def decoupled_within_band(text: str, approx: dict[tuple[float, str], float],
                          band: float = MG2_BAND) -> tuple[bool, str]:
    """Decoupled sim means within `band` of `mg2_priority_sojourn`."""
    rows = read_csv(text, SWEEP_HEADER)
    if rows is None:
        return False, "header mismatch"
    seen = 0
    worst = 0.0
    for r in rows:
        if r["topology"] != "decoupled":
            continue
        key = (float(r["rho"]), r["class"])
        if key not in approx:
            return False, f"unexpected row {key}"
        rel = abs(_float(r["sim_mean"]) - approx[key]) / approx[key]
        if not rel <= band:
            return False, f"{key}: rel err {rel:.3f} > {band:g}"
        worst = max(worst, rel)
        seen += 1
    if seen != len(approx):
        return False, f"{seen} decoupled rows for {len(approx)} expected"
    return True, f"worst rel err {worst:.3f} (band {band:g})"


def littles_law(residuals: list[float], tol: float = LITTLE_TOL) -> tuple[bool, str]:
    """Every run's Little's-law residual below `tol`."""
    if not residuals:
        return False, "no runs observed"
    worst = max(residuals, key=lambda x: x if math.isfinite(x) else math.inf)
    if not worst < tol:
        return False, f"worst residual {worst:.3g} >= {tol:g}"
    return True, f"worst residual {worst:.3g} over {len(residuals)} runs"


def busy_fraction(pairs: list[tuple[float, float]], tol: float = BUSY_TOL) -> tuple[bool, str]:
    """Across-server mean busy fraction within `tol` of the offered rho."""
    if not pairs:
        return False, "no runs observed"
    errs = [abs(busy - rho) for rho, busy in pairs]
    worst = max(errs, key=lambda x: x if math.isfinite(x) else math.inf)
    if not worst <= tol:
        return False, f"worst |busy - rho| {worst:.3g} > {tol:g}"
    return True, f"worst |busy - rho| {worst:.3g} over {len(pairs)} runs"


# ---------------------------------------------------------------------------
# trace-packets
# ---------------------------------------------------------------------------

def packet_count(n_packets: int, horizon: int) -> tuple[bool, str]:
    if n_packets != horizon:
        return False, f"{n_packets} packets for horizon {horizon}"
    return True, f"{n_packets} packets"


def starts_on_slot_grid(start: np.ndarray, slot: float) -> tuple[bool, str]:
    k = start / slot
    off = np.abs(k - np.round(k))
    bad = int(np.count_nonzero(off > 1e-9 * np.maximum(1.0, k)))
    if bad:
        return False, f"{bad} starts off the slot grid"
    return True, f"{len(start)} starts on the grid"


def fifo_within_class(is_short: np.ndarray, arrival: np.ndarray,
                      start: np.ndarray) -> tuple[bool, str]:
    """Within each class, packets start in arrival order.

    The arrays are in the order the simulator started the packets.
    """
    if np.any(np.diff(start) < 0):
        return False, "packets not listed in start order"
    for name, mask in (("short", is_short), ("long", ~is_short)):
        arr = arrival[mask]
        if np.any(np.diff(arr) < 0):
            i = int(np.argmax(np.diff(arr) < 0))
            return False, f"{name} packet {i + 1} arrived before packet {i} but started after it"
    return True, "FIFO in both classes"


def short_before_long(is_short: np.ndarray, arrival: np.ndarray,
                      start: np.ndarray) -> tuple[bool, str]:
    """No long packet starts while an arrived short packet is still waiting.

    A short packet waits over [arrival, start); a long start inside that
    interval breaks the strict non-preemptive priority.
    """
    long_starts = np.sort(start[~is_short])
    s_arr, s_start = arrival[is_short], start[is_short]
    overtakes = (np.searchsorted(long_starts, s_start, side="left")
                 - np.searchsorted(long_starts, s_arr, side="left"))
    bad = int(np.count_nonzero(overtakes > 0))
    if bad:
        return False, f"{bad} short packets overtaken by a long start"
    return True, f"{len(s_arr)} short packets never overtaken"


def trace_counts(lines, horizon: int) -> tuple[tuple[bool, str], tuple[bool, str], int]:
    """Replays the event trace CSV, given as an iterable of lines.

    Returns (queue lengths never negative, start and depart counts equal the
    horizon, data rows).
    """
    reader = csv.reader(lines)
    header = next(reader, None)
    want = ["time", "event", "class", "server", "queue_len_short", "queue_len_long"]
    if header != want:
        bad = (False, f"header {header}")
        return bad, bad, 0
    counts = {"arrival": 0, "start": 0, "depart": 0}
    negative = malformed = rows = 0
    for row in reader:
        rows += 1
        if len(row) != 6 or not (row[4] and row[5]):
            malformed += 1
            continue
        counts[row[1]] = counts.get(row[1], 0) + 1
        if row[4].startswith("-") or row[5].startswith("-"):
            negative += 1
    if negative or malformed:
        queue = (False, f"{negative} rows with a negative queue length, {malformed} malformed")
    else:
        queue = (True, f"{rows} rows, queues never negative")
    if counts["start"] == horizon and counts["depart"] == horizon and counts["arrival"] >= horizon:
        count = (True, f"{horizon} starts and departs, {counts['arrival']} arrivals")
    else:
        count = (False, f"counts {counts} for horizon {horizon}")
    return queue, count, rows


# ---------------------------------------------------------------------------
# closed-form
# ---------------------------------------------------------------------------

def slotted_below_paper(slotted: np.ndarray, paper: np.ndarray) -> tuple[bool, str]:
    """Boundary-exact short mean <= the paper's short form at every point."""
    bad = int(np.count_nonzero(~(slotted <= paper * (1.0 + 1e-12))))
    if bad:
        return False, f"{bad} of {len(paper)} points with slotted > paper"
    return True, f"{len(paper)} points"


def dkw_eps(n: int, alpha: float = DKW_ALPHA) -> float:
    """Dvoretzky-Kiefer-Wolfowitz half width: P(sup|F_n - F| > eps) <= alpha."""
    return math.sqrt(math.log(2.0 / alpha) / (2.0 * n))


def residual_cdf_checks(text: str, n_samples: int, n_grid: int
                        ) -> tuple[tuple[bool, str], tuple[bool, str]]:
    """(decoupled >= coupled pointwise, empirical columns within DKW)."""
    rows = read_csv(text, RESIDUAL_HEADER)
    if rows is None or len(rows) != n_grid:
        bad = (False, f"{'no header' if rows is None else len(rows)} rows, want {n_grid}")
        return bad, bad
    a = np.array([[_float(r.get(k) or "") for k in RESIDUAL_HEADER] for r in rows])
    coupled, decoupled, emp_c, emp_d = a[:, 1], a[:, 2], a[:, 3], a[:, 4]
    if not np.all(decoupled >= coupled - 1e-12):
        dom = (False, f"decoupled < coupled at {int(np.sum(decoupled < coupled - 1e-12))} points")
    else:
        dom = (True, f"{n_grid} points")
    eps = dkw_eps(n_samples)
    dev = max(float(np.max(np.abs(emp_c - coupled))), float(np.max(np.abs(emp_d - decoupled))))
    if not dev <= eps:
        dkw = (False, f"empirical deviation {dev:.4g} > DKW {eps:.4g}")
    else:
        dkw = (True, f"deviation {dev:.4g} <= DKW {eps:.4g}")
    return dom, dkw


def cycle_decoupled_faster(text: str) -> tuple[bool, str]:
    rows = read_csv(text, CYCLE_HEADER)
    if rows is None:
        return False, "header mismatch"
    means = {r["topology"]: _float(r["mean"]) for r in rows}
    c, d = means.get("coupled", math.nan), means.get("decoupled", math.nan)
    if not d < c:
        return False, f"decoupled mean {d} not below coupled {c}"
    return True, f"decoupled {d:.4g} < coupled {c:.4g}"
