"""Tests of the benchmark harness itself: python3 -m pytest perfbench"""

import dataclasses

import pytest

import run
import tracer
import workloads


def test_warm_mix_is_a_pure_function_of_the_seed():
    assert workloads.warm_mix(7) == workloads.warm_mix(7)
    assert workloads.warm_mix(7) != workloads.warm_mix(8)
    assert workloads.ck_bits(3) == workloads.ck_bits(3)
    assert workloads.tables(3) == workloads.tables(3)


def test_every_seed_draws_the_same_work_per_class():
    for seed in range(20):
        mix = workloads.warm_mix(seed)
        assert len(mix) == sum(quota for _, quota in workloads.MIX_QUOTAS)
        for pool, quota in workloads.MIX_QUOTAS:
            assert sum(cmd in pool for cmd in mix) == quota
            drawn = [mix.count(cmd) for cmd in pool]
            assert max(drawn) - min(drawn) <= 1
        assert sorted(workloads.ck_bits(seed)) == sorted(workloads.ck_bits(0))
        assert sorted(workloads.tables(seed)) == sorted(workloads.tables(0))


def test_every_command_has_an_expected_record():
    expected = run.load_expected()
    assert set(workloads.universe()) <= set(expected)
    assert all(rec["exit"] == 0 for rec in expected.values())


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 31)]  # 30 samples
    pct, value = run.tail_percentile(samples)
    assert value == 20.0
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * 20 / 30)
    assert run.tail_percentile(list(range(11))) == (100 / 11, 0)
    with pytest.raises(ValueError):
        run.tail_percentile(list(range(10)))


def test_command_latency_is_the_median_over_passes():
    passes = [[1.0, 2.0, 9.0], [1.2, 2.2, 3.0], [1.1, 2.1, 3.2]]
    assert run.command_latencies(passes) == [1.1, 2.1, 3.2] * 3


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        ["cli.main", None, 0.0, 10.0, {}],
        ["curves.count_series", 0, 1.0, 3.0, {}],
        ["kernels.count", 1, 1.5, 2.5, {}],
        ["curves.point_count", 0, 2.0, 5.0, {}],  # overlaps its sibling: covered once
        ["cache.store", 0, 8.0, 12.0, {}],  # runs past its parent: clipped
    ]
    assert tracer.self_times(spans) == pytest.approx([10 - 4 - 2, 2 - 1, 1, 3, 4])


def test_layer_metrics_split_self_time_by_layer():
    spans = [
        ["cli.main", None, 0.0, 10.0, {}],
        ["curves.count_series", 0, 0.0, 9.0, {}],
        ["cache.lookup", 1, 0.0, 1.0, {"hit": False}],
        ["curves.point_count", 1, 1.0, 8.0, {}],
        ["kernels.count", 3, 1.0, 7.0, {"elements": 64}],
        ["gf.tables", 4, 1.0, 3.0, {"p": 2, "elements": 64}],
    ]
    m = tracer.layer_metrics([{"import_s": 0.5, "missing": [], "spans": spans}])
    assert m["kernels.count.self_s"] == pytest.approx(4.0)
    assert m["kernels.count.elements_per_s"] == pytest.approx(16.0)
    assert m["gf.tables.s"] == m["gf.tables.p2_s"] == pytest.approx(2.0)
    assert m["curves.self_s"] == pytest.approx(1.0 + 1.0)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["cache.hit_ratio"] == 0.0
    assert m["cli.import_s"] == 0.5 and m["cli.calls"] == 1


# Eleven samples: the fewest the tail percentile is defined for.
TINY = workloads.Workload("tiny", lambda seed: ["verify as-image --p 3"] * 11, (), 100.0, 1)


def test_matching_outputs_pass():
    result = run.run_workload(TINY, 1, 1, False, run.load_expected())
    assert result["correct"] and result["failed"] == 0 and result["fail_ratio"] == 0.0


def test_corrupted_expected_record_raises_fail_ratio():
    expected = run.load_expected()
    cmd = "verify as-image --p 3"
    expected[cmd] = dict(expected[cmd], stdout=expected[cmd]["stdout"].replace("false", "true", 1))
    result = run.run_workload(TINY, 1, 1, False, expected)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 11
    assert result["fail_ratio"] == 1.0


TRACED_TINY = workloads.Workload(
    "tiny", lambda seed: ["verify as-image --p 3"], (), 100.0, 1,
    (("kernels.count.calls", 0), ("sympoly.calls", 1)),
)


def test_traced_run_matches_untraced_output_and_checks_idle_layers():
    result = run.run_workload(TRACED_TINY, 1, 1, True, run.load_expected())
    assert result["correct"], result["problems"]
    assert result["metrics"]["sympoly.calls"] == 1
    broken = dataclasses.replace(TRACED_TINY, idle_checks=(("sympoly.calls", 0),))
    assert not run.run_workload(broken, 1, 1, True, run.load_expected())["correct"]


def test_a_traced_function_that_is_gone_fails_the_run(monkeypatch):
    run_command = run.run_command

    def losing_a_target(*args, **kwargs):
        result = run_command(*args, **kwargs)
        if result.trace is not None:
            result.trace["missing"].append("lpolydiv.gf.make_field")
        return result

    monkeypatch.setattr(run, "run_command", losing_a_target)
    result = run.run_workload(TRACED_TINY, 1, 1, True, run.load_expected())
    assert not result["correct"]
    assert any("lpolydiv.gf.make_field" in p for p in result["problems"])
