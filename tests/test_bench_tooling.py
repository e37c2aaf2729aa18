"""Benchmark tooling: the perf gate's missing-baseline behavior and
the BENCH-artifact trend folding."""

import json
import pathlib
import sys

import pytest

BENCHMARKS = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

import artifact  # noqa: E402
import perf_gate  # noqa: E402
import trend  # noqa: E402


def make(name="service", quick=True, metrics=None, timestamp="t0"):
    return {
        "name": name,
        "config": {"quick": quick},
        "metrics": metrics or {},
        "timestamp": timestamp,
        "git_rev": "abc1234",
    }


FULL_SERVICE_METRICS = {
    "warm_over_cold": 20.0,
    "warm_response_hit_rate": 0.9,
    "shed": 2,
    "healthy_after": True,
}


# ----------------------------------------------------------------------
# perf gate
# ----------------------------------------------------------------------
class TestPerfGateMissing:
    def test_clean_pass(self):
        base = make(metrics=FULL_SERVICE_METRICS)
        cur = make(metrics=FULL_SERVICE_METRICS)
        failures, warnings = perf_gate.gate(base, cur, tolerance=0.5)
        assert failures == [] and warnings == []

    def test_missing_baseline_metric_warns_and_uses_floor(self):
        base = make(metrics={"warm_over_cold": 20.0})
        cur = make(metrics=FULL_SERVICE_METRICS)
        failures, warnings = perf_gate.gate(base, cur, tolerance=0.5)
        assert failures == []
        assert len(warnings) == 1
        assert "warm_response_hit_rate" in warnings[0]
        assert "absolute floor" in warnings[0]

    def test_missing_baseline_metric_floor_still_binds(self):
        # The hole downgrades the relative gate, not the absolute one:
        # a current value below the floor fails even in warn mode.
        base = make(metrics={"warm_over_cold": 20.0})
        cur = make(metrics={
            **FULL_SERVICE_METRICS, "warm_response_hit_rate": 0.1,
        })
        failures, warnings = perf_gate.gate(base, cur, tolerance=0.5)
        assert any("warm_response_hit_rate" in f for f in failures)
        assert len(warnings) == 1

    def test_missing_fail_mode(self):
        base = make(metrics={"warm_over_cold": 20.0})
        cur = make(metrics=FULL_SERVICE_METRICS)
        failures, warnings = perf_gate.gate(
            base, cur, tolerance=0.5, missing="fail"
        )
        assert any("warm_response_hit_rate" in f for f in failures)
        assert warnings == []

    def test_missing_guard_target_warns(self):
        metrics = dict(FULL_SERVICE_METRICS)
        del metrics["healthy_after"]
        base = make(metrics=FULL_SERVICE_METRICS)
        cur = make(metrics=metrics)
        failures, warnings = perf_gate.gate(base, cur, tolerance=0.5)
        assert failures == []
        assert any("healthy_after" in w for w in warnings)
        failures, _ = perf_gate.gate(
            base, cur, tolerance=0.5, missing="fail"
        )
        assert any("healthy_after" in f for f in failures)

    def test_uncomparable_guard_value_fails_not_crashes(self):
        base = make(metrics=FULL_SERVICE_METRICS)
        cur = make(metrics={**FULL_SERVICE_METRICS, "shed": None})
        failures, _ = perf_gate.gate(base, cur, tolerance=0.5)
        assert any("shed" in f and "guard failed" in f for f in failures)

    def test_bad_missing_mode_rejected(self):
        with pytest.raises(ValueError):
            perf_gate.gate(make(), make(), 0.5, missing="ignore")

    def test_main_warn_exits_zero(self, tmp_path, capsys):
        bp, cp = tmp_path / "b.json", tmp_path / "c.json"
        artifact.write_artifact(
            bp, make(metrics={"warm_over_cold": 20.0})
        )
        artifact.write_artifact(cp, make(metrics=FULL_SERVICE_METRICS))
        assert perf_gate.main([str(bp), str(cp)]) == 0
        captured = capsys.readouterr()
        assert "PERF GATE WARN" in captured.err
        assert "warning(s) above" in captured.out
        assert perf_gate.main(
            [str(bp), str(cp), "--missing", "fail"]
        ) == 1


# ----------------------------------------------------------------------
# committed baselines carry the full gated metric set
# ----------------------------------------------------------------------
@pytest.mark.parametrize("path", sorted(
    (BENCHMARKS / "baselines").glob("BENCH_*.json")
))
def test_committed_baselines_have_no_holes(path):
    """The warn path exists for transition windows — the baselines in
    the repo must never need it."""
    record = artifact.load_artifact(path)
    name = record["name"]
    expected = set(perf_gate.RATIO_RULES.get(name, {}))
    expected |= set(perf_gate.GUARDS.get(name, {}))
    missing = sorted(expected - set(record["metrics"]))
    assert missing == [], f"{path.name} missing gated metrics {missing}"


# ----------------------------------------------------------------------
# the overload storm never repeats a tune
# ----------------------------------------------------------------------
def test_overload_storm_sends_each_tune_once():
    import bench_fabric_load

    storm = bench_fabric_load.storm_payloads()
    distinct = {json.dumps(p, sort_keys=True) for p in storm}
    assert len(distinct) == len(storm) == 2 * 566
    assert list(storm) != list(bench_fabric_load.storm_payloads(seed=1))


def test_storm_cache_hits_fail_the_gate():
    baseline = artifact.load_artifact(
        BENCHMARKS / "baselines" / "BENCH_fabric_load.json"
    )
    current = json.loads(json.dumps(baseline))
    failures, _ = perf_gate.gate(baseline, current, 0.5)
    assert not any("overload_storm_cache_hits" in f for f in failures)
    current["metrics"]["overload_storm_cache_hits"] = 3
    failures, _ = perf_gate.gate(baseline, current, 0.5)
    assert any("overload_storm_cache_hits" in f for f in failures)


# ----------------------------------------------------------------------
# trend folding
# ----------------------------------------------------------------------
class TestTrend:
    def write(self, directory, *records):
        for record in records:
            artifact.write_artifact_dir(directory, record)

    def test_trajectory_orders_and_deltas(self, tmp_path):
        self.write(
            tmp_path,
            make(metrics={"warm_rps": 110.0}, timestamp="2026-01-02"),
            make(metrics={"warm_rps": 100.0}, timestamp="2026-01-01"),
            make(metrics={"warm_rps": 140.0}, timestamp="2026-01-03"),
        )
        rows = trend.trajectories(trend.collect(tmp_path))["service/quick"]
        values = [r["metrics"]["warm_rps"]["value"] for r in rows]
        deltas = [r["metrics"]["warm_rps"]["delta"] for r in rows]
        assert values == [100.0, 110.0, 140.0]
        assert deltas == [None, 10.0, 30.0]

    def test_variants_are_separate_trajectories(self, tmp_path):
        self.write(
            tmp_path,
            make(quick=True, metrics={"m": 1.0}, timestamp="t1"),
            make(quick=False, metrics={"m": 9.0}, timestamp="t1"),
        )
        groups = trend.trajectories(trend.collect(tmp_path))
        assert set(groups) == {"service/quick", "service/full"}

    def test_bad_file_skipped_loudly(self, tmp_path, capsys):
        self.write(tmp_path, make(metrics={"m": 1.0}))
        (tmp_path / "BENCH_broken.json").write_text("{nope")
        (tmp_path / "BENCH_holes.json").write_text(
            json.dumps({"name": "x"})
        )
        artifacts = trend.collect(tmp_path)
        assert len(artifacts) == 1
        err = capsys.readouterr().err
        assert "BENCH_broken.json" in err
        assert "BENCH_holes.json" in err

    def test_artifact_dir_filenames_collide_free(self, tmp_path):
        p1 = artifact.write_artifact_dir(
            tmp_path, make(timestamp="2026-01-01T00:00:00Z")
        )
        p2 = artifact.write_artifact_dir(
            tmp_path, make(timestamp="2026-01-02T00:00:00Z")
        )
        assert p1 != p2
        assert p1.name.startswith("BENCH_service_quick_")
        assert artifact.load_artifact(p1)["name"] == "service"
        # Same timestamp and rev, different variant: still no clobber.
        p3 = artifact.write_artifact_dir(
            tmp_path,
            make(quick=False, timestamp="2026-01-01T00:00:00Z"),
        )
        assert p3 not in (p1, p2)
        assert len(trend.collect(tmp_path)) == 3

    def test_main_table_and_json(self, tmp_path, capsys):
        self.write(
            tmp_path,
            make(metrics={"warm_rps": 100.0}, timestamp="t1"),
            make(metrics={"warm_rps": 130.0}, timestamp="t2"),
        )
        assert trend.main([str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "service/quick" in out and "(+30)" in out
        assert trend.main([str(tmp_path), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "service/quick" in doc

    def test_main_empty_dir_fails(self, tmp_path, capsys):
        assert trend.main([str(tmp_path)]) == 1
        assert "no BENCH_" in capsys.readouterr().err
