"""One cold process of the package under measurement.

    python child.py cold    RESULT
    python child.py imports RESULT
    python child.py work    RESULT INPUTS OUT
    python child.py traced  RESULT INPUTS OUT

Every mode puts the checkout's ``src/`` first on ``sys.path`` and refuses
to run if ``normeuclid`` resolves anywhere else.  ``cold``, ``work`` and
``traced`` import ``normeuclid.cli`` before anything else and record the
monotonic clock at that moment, so the parent can time the cold start from
the spawn.  ``imports`` times each module's import in dependency order.
``work`` runs the input's op list once, with a calibration loop run
alongside (``_Stopwatch``); ``traced`` runs it with a span around every op,
then probes the workload's own kernel arguments.  The result is one JSON
file, written at the end.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(_ROOT, "src")
sys.path.insert(0, _SRC)

# Dependency order: each module imports only modules listed before it.
_MODULE_ORDER = ("specfun", "rogers", "lenstra", "cyclozeta", "zimmert", "cli")
_PROBE_BATCHES = 5
_CALIBRATION_RUNS = 3
_CALIBRATE_EVERY_S = 1.0


def _calibration_loop() -> float:
    """Seconds this process takes for a fixed piece of pure-Python work
    that uses nothing of the package.  It creates no object the garbage
    collector tracks, so it never pays for a collection of the package's
    heap."""
    import math

    t0 = time.perf_counter()
    acc = 0.0
    for i in range(300_000):
        acc += math.sqrt(i % 97 + 1.5)
    return time.perf_counter() - t0


class _Stopwatch:
    """Work time, with the calibration loop run alongside the work.

    The host's speed drifts by up to a factor of two over tens of seconds on
    a shared virtual machine, for the package and the loop alike.  The loop
    runs a few times before and after the work, and once more whenever
    ``lap`` (called between units of work) finds ``every_s`` seconds of work
    done since its last run; ``samples`` holds its times, so the parent can
    set the work against the host's speed during this very work.  The
    loop's own time is not work.
    """

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.work_s = 0.0
        self.samples = [_calibration_loop() for _ in range(_CALIBRATION_RUNS)]
        self._start = time.perf_counter()

    def lap(self, final: bool = False) -> None:
        segment = time.perf_counter() - self._start
        if segment < self.every_s and not final:
            return
        self.work_s += segment
        runs = _CALIBRATION_RUNS if final else 1
        self.samples += [_calibration_loop() for _ in range(runs)]
        self._start = time.perf_counter()


def _import_times() -> dict:
    """Seconds each module adds when imported in dependency order.

    The package ``__init__`` imports every module at once, so it is
    replaced by an empty package object for this measurement.
    """
    import importlib
    import types

    pkg = types.ModuleType("normeuclid")
    pkg.__path__ = [os.path.join(_SRC, "normeuclid")]
    sys.modules["normeuclid"] = pkg
    out = {}
    for name in _MODULE_ORDER:
        t0 = time.perf_counter()
        importlib.import_module(f"normeuclid.{name}")
        out[name] = time.perf_counter() - t0
    return out


def _check_source(module_file: str) -> None:
    expected = os.path.join(os.path.realpath(_SRC), "normeuclid", "")
    if not os.path.realpath(module_file).startswith(expected):
        raise SystemExit(f"normeuclid imported from {module_file}, not from {expected}")


def _encode(x):
    """JSON-able form of a call's result (dataclasses become field lists)."""
    import dataclasses

    if dataclasses.is_dataclass(x):
        return [_encode(getattr(x, f.name)) for f in dataclasses.fields(x)]
    if isinstance(x, (tuple, list)):
        return [_encode(v) for v in x]
    return x


# Results too large to ship whole are summarised; the parent checks the
# summaries against independent counts.
_SUMMARIES = {
    "cyclozeta.unit_group": lambda g: [order for _, order in g.generators],
    "cyclozeta.characters": lambda chars: [len(chars), sum(c.conductor for c in chars)],
}

# Work counters recorded at the op boundary in a traced pass.
_COUNTERS = {
    "cyclozeta.characters": ("cyclozeta.characters.count", len),
    "rogers.central_integral": ("rogers.central_integral.evals", lambda e: e.terms_used),
}


def _fill(args, out_path: str):
    if isinstance(args, list):
        return [_fill(a, out_path) for a in args]
    return out_path if args == "{out}" else args


def _trace_scan_rows(tracer, scan_modulus):
    """Span every scan row the CLI computes, with explicit cold calls for
    the row's unit group and characters first; returns the undo."""
    from normeuclid import cyclozeta

    real = cyclozeta.scan_row

    def scan_row(m, epsilon, *args, **kwargs):
        with tracer.span("cyclozeta.scan_row"):
            mc = scan_modulus(m)
            with tracer.span("cyclozeta.unit_group"):
                cyclozeta.unit_group(mc)
            with tracer.span("cyclozeta.characters"):
                tracer.count("cyclozeta.characters.count", len(cyclozeta.characters(mc)))
            return real(m, epsilon, *args, **kwargs)

    cyclozeta.scan_row = scan_row
    return lambda: setattr(cyclozeta, "scan_row", real)


def _lap_scan_rows(stopwatch):
    """Give the stopwatch a lap after every scan row the CLI computes, so a
    single long CLI call is calibrated along the way; returns the undo."""
    from normeuclid import cyclozeta

    real = cyclozeta.scan_row

    def scan_row(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        finally:
            stopwatch.lap()

    cyclozeta.scan_row = scan_row
    return lambda: setattr(cyclozeta, "scan_row", real)


def _probe(fn, args: list) -> float:
    """Median over batches of the mean microseconds per call."""
    import statistics

    if not args:
        return 0.0
    per_call = []
    for _ in range(_PROBE_BATCHES):
        t0 = time.perf_counter()
        for a in args:
            fn(*a)
        per_call.append((time.perf_counter() - t0) / len(args))
    return statistics.median(per_call) * 1e6


def _run(traced: bool, inputs_path: str, out_path: str) -> dict:
    import contextlib
    import json
    import math
    import resource
    import traceback

    sys.path.insert(1, _ROOT)
    from perfbench import spans, workloads

    with open(inputs_path) as fh:
        inputs = json.load(fh)
    calls = workloads.bind_calls()
    ops = [(name, calls[name], _fill(args, out_path)) for name, args in inputs["ops"]]
    tracer = spans.Tracer() if traced else None
    span = tracer.span if traced else (lambda name: contextlib.nullcontext())
    results: list = [None] * len(ops)
    errors = []

    def maxrss_kib() -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    rss_before = maxrss_kib()
    # A traced pass calibrates only at its ends, so no span holds the loop.
    stopwatch = _Stopwatch(math.inf if traced else _CALIBRATE_EVERY_S)
    if traced:
        undo = _trace_scan_rows(tracer, workloads.scan_modulus)
    else:
        undo = _lap_scan_rows(stopwatch)
    try:
        for i, (name, fn, args) in enumerate(ops):
            with span(name):
                try:
                    results[i] = fn(*args)
                except Exception as exc:  # one failed op must not stop the run
                    traceback.print_exc()
                    errors.append([i, f"{type(exc).__name__}: {exc}"])
            stopwatch.lap()
    finally:
        undo()
    stopwatch.lap(final=True)
    out = {
        "wall_s": stopwatch.work_s,
        "calibration_s": stopwatch.samples,
        "maxrss_kib": maxrss_kib(),
        "rss_growth_kib": maxrss_kib() - rss_before,
        "errors": errors,
    }

    # Everything below is outside the timed region.
    if traced:
        for (name, _, _), r in zip(ops, results):
            if name in _COUNTERS and r is not None:
                counter, size = _COUNTERS[name]
                tracer.count(counter, size(r))
    out["outputs"] = [
        _SUMMARIES[name](r) if name in _SUMMARIES and r is not None else _encode(r)
        for (name, _, _), r in zip(ops, results)
    ]
    # main_gap on both sides of every crossing found, for the sign check
    out["crossing_gaps"] = [
        [i] + [_encode(calls["lenstra.main_gap"](n, 0, args[0])) for n in (r - 1, r)]
        for i, ((name, _, args), r) in enumerate(zip(ops, results))
        if name == "lenstra.find_crossing" and isinstance(r, int)
    ]
    if traced:
        from normeuclid import specfun

        probe_errors = 0
        probes = {}
        for key, fn, args in (
            ("hurwitz_zeta", specfun.hurwitz_zeta, inputs["hurwitz_probe"]),
            ("hurwitz_zeta_ds", specfun.hurwitz_zeta_ds, inputs["hurwitz_probe"]),
            ("digamma", specfun.digamma, [[x] for x in inputs["digamma_probe"]]),
        ):
            try:
                probes[key] = _probe(fn, args)
            except Exception:  # reported as a specfun error, not a crash
                traceback.print_exc()
                probes[key] = 0.0
                probe_errors += 1
        out.update(
            spans=tracer.spans, counts=tracer.counts, probes=probes, probe_errors=probe_errors
        )
    return out


def main() -> None:
    mode, result_path = sys.argv[1], sys.argv[2]
    if mode == "imports":
        result = {"import_s": _import_times()}
        module_file = sys.modules["normeuclid.cli"].__file__
    else:
        import normeuclid.cli

        result = {"ready": time.clock_gettime(time.CLOCK_MONOTONIC)}
        module_file = normeuclid.__file__
    _check_source(module_file)
    result["module_file"] = module_file
    if mode in ("work", "traced"):
        result.update(_run(mode == "traced", sys.argv[3], sys.argv[4]))
    elif mode not in ("cold", "imports"):
        raise SystemExit(f"unknown mode {mode!r}")

    import json

    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
