"""The benchmark's metrics: what each one means, which end-to-end metric a
per-layer metric should move and on which workload, and how the per-layer
values are computed from a traced child's spans.

A per-layer metric reads 0 on a workload that never makes the call it
measures.  ``.s`` metrics are self time summed over the call's spans (the
span's duration minus what its child spans cover); per-call metrics and
percentiles use the whole duration of each span.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from .spans import nearest_rank, self_times, union_length

__all__ = ["END_TO_END", "LAYERS", "LAYER_METRICS", "layer_metrics"]

# name, unit, better, bound (the share of the parent's median by which a
# change may worsen it).  setup_s: spawn of a child until normeuclid.cli is
# imported in it.  wall_ref: time to finish the work list in a fresh
# process, in multiples of a fixed calibration loop timed in the same
# processes during the same run (the median work time over the run's
# processes divided by the median loop time).  On a shared two-CPU virtual
# machine the host's speed drifts by up to a factor of two over tens of
# seconds; the ratio cancels that drift, which seconds alone cannot.
# peak_rss_mb: the child's own getrusage(RUSAGE_SELF).ru_maxrss.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_ref", "ref", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

LAYERS = ("specfun", "rogers", "lenstra", "cyclozeta", "zimmert", "cli")

_ALL = "every workload"
_CYCLO = "wall_ref on cyclo-scan and cyclo-large"
_LARGE = "wall_ref on cyclo-large"
_SWEEP = "wall_ref on bounds-sweep"

# name, unit, better, end-to-end metric and workload it should move,
# workloads where the prediction is no change
LAYER_METRICS = (
    ("specfun.import_s", "s", "lower", f"setup_s on {_ALL}", "-"),
    ("cyclozeta.import_s", "s", "lower", f"setup_s on {_ALL}", "-"),
    ("cli.import_s", "s", "lower", f"setup_s on {_ALL}", "-"),
    ("cyclozeta.unit_group.s", "s", "lower", _CYCLO, "bounds-sweep"),
    ("cyclozeta.characters.s", "s", "lower", _CYCLO, "bounds-sweep"),
    ("cyclozeta.scan_row.s", "s", "lower", "wall_ref on cyclo-scan", "cyclo-large, bounds-sweep"),
    ("cyclozeta.scan_row.p50_ms", "ms", "lower", "wall_ref on cyclo-scan",
     "cyclo-large, bounds-sweep"),
    ("cyclozeta.scan_row.p97_ms", "ms", "lower", "wall_ref on cyclo-scan",
     "cyclo-large, bounds-sweep"),
    ("cyclozeta.zeta_cyclotomic.s", "s", "lower", _LARGE, "bounds-sweep"),
    ("cyclozeta.zeta_cyclotomic_logderiv.s", "s", "lower", _LARGE, "bounds-sweep"),
    ("cyclozeta.zeta_cyclotomic_euler.s", "s", "lower", _LARGE, "bounds-sweep"),
    ("cyclozeta.characters.count", "count", "lower",
     "peak_rss_mb on cyclo-scan and cyclo-large", "bounds-sweep"),
    ("cyclozeta.rss_growth_mb", "MiB", "lower",
     "peak_rss_mb on cyclo-scan and cyclo-large", "bounds-sweep"),
    ("specfun.hurwitz_zeta.us_per_call", "us", "lower",
     "wall_ref on cyclo-large, and on cyclo-scan once the character route stops dominating",
     "bounds-sweep"),
    ("specfun.hurwitz_zeta_ds.us_per_call", "us", "lower",
     "wall_ref on cyclo-large, and on cyclo-scan once the character route stops dominating",
     "bounds-sweep"),
    ("specfun.digamma.us_per_call", "us", "lower", _SWEEP, "cyclo-scan"),
    ("zimmert.f_terms.ms_per_call", "ms", "lower", _SWEEP, "cyclo-scan"),
    ("zimmert.satz4_check.ms_per_call", "ms", "lower", _SWEEP, "cyclo-scan"),
    ("zimmert.min_norm_check.ms_per_call", "ms", "lower", _SWEEP, "cyclo-scan"),
    ("rogers.f_lower.us_per_call", "us", "lower", _SWEEP, "cyclo-scan, cyclo-large"),
    ("rogers.central_integral.evals", "count", "lower", _SWEEP, "cyclo-scan, cyclo-large"),
    ("lenstra.find_crossing.ms_per_call", "ms", "lower", _SWEEP, "cyclo-scan, cyclo-large"),
    ("lenstra.main_gap.us_per_call", "us", "lower", _SWEEP, "cyclo-scan, cyclo-large"),
    *((f"{layer}.errors", "count", "lower", f"error_rate on {_ALL}", "-") for layer in LAYERS),
    ("trace.overhead_frac", "fraction", "lower", "-", "-"),
    ("trace.coverage_frac", "fraction", "higher", "-", "-"),
)

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def _wall_ref(child: dict) -> float:
    """A child's work time in multiples of its calibration loop."""
    return child["wall_s"] / statistics.median(child["calibration_s"])


def layer_metrics(traced: dict, untraced: dict) -> dict[str, float]:
    """Every per-layer metric of one traced child, given the untraced child
    run just before it, except the import times and error counts, which
    come from other processes and the checks."""
    spans = traced["spans"]
    durations: dict[str, list[float]] = defaultdict(list)
    self_s: dict[str, float] = defaultdict(float)
    for (name, start, end, _), own in zip(spans, self_times(spans)):
        durations[name].append(end - start)
        self_s[name] += own
    roots = [(start, end) for _, start, end, parent in spans if parent < 0]
    counts, probes = traced["counts"], traced["probes"]
    rows = durations["cyclozeta.scan_row"]
    out = {
        "cyclozeta.scan_row.p50_ms": nearest_rank(rows, 0.50) * 1e3,
        "cyclozeta.scan_row.p97_ms": nearest_rank(rows, 0.97) * 1e3,
        "cyclozeta.characters.count": counts.get("cyclozeta.characters.count", 0),
        "cyclozeta.rss_growth_mb": traced["rss_growth_kib"] / 1024.0,
        "rogers.central_integral.evals": counts.get("rogers.central_integral.evals", 0),
        "trace.overhead_frac": _wall_ref(traced) / _wall_ref(untraced) - 1.0,
        "trace.coverage_frac": union_length(roots) / traced["wall_s"],
    }
    for name, unit, *_ in LAYER_METRICS:
        call, _, kind = name.rpartition(".")
        if kind == "s":
            out[name] = self_s[call]
        elif call.startswith("specfun.") and kind.endswith("_per_call"):
            out[name] = probes[call.partition(".")[2]]  # probed, in microseconds
        elif kind.endswith("_per_call"):
            calls = durations[call]
            out[name] = statistics.fmean(calls) * _SCALE[unit] if calls else 0.0
    return out
