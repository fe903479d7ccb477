"""The benchmark's own code: seeded inputs, span arithmetic, the
group-determinant oracles, the output checks, and BENCHMARK.json."""

import json
from pathlib import Path

import mpmath
import pytest

from perfbench import checks, metrics, spans, workloads

ROOT = Path(__file__).resolve().parents[2]


# ---------------------------------------------------------------- inputs

@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    a = workloads.make_inputs(workload, 7)
    assert a == workloads.make_inputs(workload, 7)
    assert json.loads(json.dumps(a)) == a
    assert a != workloads.make_inputs(workload, 8)


def test_cyclo_large_draw_is_stratified_and_balanced():
    for seed in range(20):
        moduli = [m for m, _ in workloads.make_inputs("cyclo-large", seed)["moduli"]]
        primes = [m for m in moduli if workloads.is_prime(m)]
        composites = [m for m in moduli if not workloads.is_prime(m)]
        assert len(set(primes)) == len(set(composites)) == 2
        assert 400 <= min(moduli) and max(moduli) <= 1100
        assert min(composites) < 750 <= max(composites)
        for pair, target, band in ((primes, 550_000, 0.01), (composites, 150_000, 0.05)):
            assert abs(sum(map(workloads.conductor_sum, pair)) - target) <= band * target


def _mobius(n):
    f = workloads.factorize(n)
    return 0 if any(k > 1 for k in f.values()) else (-1) ** len(f)


def test_conductor_sum_against_mobius_inversion():
    # primitive characters mod d: sum over e | d of mu(d/e) phi(e)
    def primitive(d):
        return sum(_mobius(d // e) * workloads.totient(e) for e in workloads.divisors(d))

    for m in range(1, 130):
        expected = sum(d * primitive(d) for d in workloads.divisors(m))
        assert workloads.conductor_sum(m) == expected, m


# ----------------------------------------------------------------- spans

def test_self_time_on_a_synthetic_tree():
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.child", 2.0, 3.0, 1],
        ["b", 3.0, 6.0, 0],    # overlaps a: the overlap is not subtracted twice
        ["c", 8.0, 12.0, 0],   # runs past its parent: clipped to the parent
    ]
    assert spans.self_times(tree) == pytest.approx([10.0 - 5.0 - 2.0, 2.0, 1.0, 3.0, 4.0])


def test_tracer_records_nesting_and_counts():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            tracer.count("work", 3)
        with tracer.span("inner"):
            tracer.count("work", 4)
    assert [(s[0], s[3]) for s in tracer.spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert all(s[1] <= s[2] for s in tracer.spans)
    assert tracer.counts == {"work": 7}


def test_union_and_nearest_rank():
    assert spans.union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.6)]) == pytest.approx(3.0)
    assert spans.union_length([]) == 0.0
    values = list(range(1, 351))
    assert spans.nearest_rank(values, 0.97) == 340
    assert spans.nearest_rank([4, 1, 3, 2], 0.5) == 2
    assert spans.nearest_rank([], 0.5) == 0.0


# ------------------------------------------------------ timing and loop

class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_stopwatch_keeps_the_calibration_loop_out_of_the_work_time(monkeypatch):
    from perfbench import child

    clock = _FakeClock()

    def loop():
        clock.now += 5.0
        return 5.0

    monkeypatch.setattr(child.time, "perf_counter", clock)
    monkeypatch.setattr(child, "_calibration_loop", loop)
    watch = child._Stopwatch(every_s=1.0)
    assert len(watch.samples) == 3
    for work in (0.5, 0.7, 0.3):  # the second lap closes a segment of 1.2 s
        clock.now += work
        watch.lap()
    assert len(watch.samples) == 4
    clock.now += 0.25
    watch.lap(final=True)
    assert watch.work_s == pytest.approx(1.75)
    assert len(watch.samples) == 7


def test_repeat_overshoots_by_at_most_half_a_call(monkeypatch):
    from perfbench import run

    clock = _FakeClock()
    monkeypatch.setattr(run.time, "monotonic", clock)

    def spawn():
        clock.now += 4.0
        return clock.now

    assert run._repeat(spawn, 30.0) == [4.0, 8.0, 12.0, 16.0, 20.0, 24.0, 28.0]
    clock.now = 0.0
    assert run._repeat(spawn, 1.0) == [4.0]  # always at least once


# --------------------------------------------------------------- oracles

@pytest.mark.parametrize("s", [1.1, 1.5, 3.0])
def test_oracle_trivial_field_is_riemann_zeta(s):
    with mpmath.workdps(30):
        assert checks.zeta_oracle(1, s) == pytest.approx(mpmath.zeta(s), rel=1e-25)
    assert checks.log_zeta_oracle_fp(1, s) == pytest.approx(float(mpmath.log(mpmath.zeta(s))), rel=1e-14)


def test_oracle_gaussian_field_catalan_anchor():
    with mpmath.workdps(30):
        expected = mpmath.zeta(2) * mpmath.catalan
        assert abs(checks.zeta_oracle(4, 2.0) - expected) <= mpmath.mpf(10) ** -27


@pytest.mark.parametrize("m,s", [(7, 1.05), (12, 1.1), (15, 1.3), (16, 1.02), (30, 2.0)])
def test_binary64_oracle_agrees_with_mpmath_oracle(m, s):
    exact = float(mpmath.log(checks.zeta_oracle(m, s)))
    assert checks.log_zeta_oracle_fp(m, s) == pytest.approx(exact, abs=1e-13)


@pytest.mark.parametrize("s", [1.05, 1.5])
def test_logderiv_oracle_bound_holds_for_riemann_zeta(s):
    value, err = checks.logderiv_oracle(1, s)
    exact = float(mpmath.zeta(s, 1, 1) / mpmath.zeta(s))
    assert abs(value - exact) <= err
    assert err < 1e-5 * abs(exact)


def test_central_integral_oracle_small_case():
    # n = 2 kappa^2 with kappa = 24, theta = 0.1: integrate by hand in mpmath
    n, theta = 1152.0, 0.1
    hi = (n / 2) ** (theta / 2)
    direct = mpmath.quad(lambda u: mpmath.exp(-u * u) * (1 - u * u / n) ** n, [-hi, hi])
    assert checks.central_integral_oracle(n, theta) == pytest.approx(float(direct), rel=1e-14)


# ---------------------------------------------------------------- checks

def _sweep_rep(crossing):
    return {
        "outputs": [crossing, [-0.5, 1.0, True]],
        "errors": [],
        "crossing_gaps": [[0, [-1e-6, 1e-15, 21], [2e-6, 1e-15, 21]]],
    }


def test_checks_count_wrong_and_irreproducible_outputs():
    inputs = {
        "ops": [["lenstra.find_crossing", [0.1, 55000, 70000]], ["zimmert.satz4_check", [3, 0.1]]],
        "oracle_integrals": [],
    }
    good = _sweep_rep(62236)
    assert checks.check_reps("bounds-sweep", inputs, [good, good]) == (4, 0, {})

    attempted, failed, by_layer = checks.check_reps("bounds-sweep", inputs, [_sweep_rep(62237)])
    assert (attempted, failed, dict(by_layer)) == (2, 1, {"lenstra": 1})

    drifted = _sweep_rep(62236)
    drifted["outputs"][1] = [-0.5, 1.0000000000000002, True]
    _, failed, by_layer = checks.check_reps("bounds-sweep", inputs, [good, drifted])
    assert (failed, dict(by_layer)) == (1, {"zimmert": 1})

    raised = dict(good, errors=[[1, "ValueError: boom"]])
    raised["outputs"] = [62236, None]
    _, failed, by_layer = checks.check_reps("bounds-sweep", inputs, [raised])
    assert (failed, dict(by_layer)) == (1, {"zimmert": 1})


def test_scan_checks_fail_every_row_when_the_cli_fails():
    inputs = workloads.make_inputs("cyclo-scan", 1)
    rep = {"outputs": [1], "errors": [], "csv": None}
    attempted, failed, by_layer = checks.check_reps("cyclo-scan", inputs, [rep])
    assert attempted == failed == workloads.M_MAX
    assert dict(by_layer) == {"cli": workloads.M_MAX}


# --------------------------------------------------------- BENCHMARK.json

def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == workloads.WORKLOADS
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == list(
        metrics.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in metrics.LAYER_METRICS
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < b <= 0.25 for b in bounds.values())
