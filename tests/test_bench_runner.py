"""Runner invariants: byte-identity, schema round-trip, importance."""

import json

import pytest

from repro.bench import (
    SELFTEST_GRID,
    BenchSchemaError,
    BenchSpecError,
    ComponentToggle,
    Grid,
    run_grid,
    validate_payload,
    write_grid_artifacts,
)


def bad_metrics_runner(params, seed):
    return ["not", "a", "dict"]


def missing_primary_runner(params, seed):
    return {"other": 1.0}


def bad_tuple_runner(params, seed):
    return ({"cost": 1.0}, "detail", "extra")


def non_scalar_runner(params, seed):
    return {"cost": [1.0]}


def no_check(result):
    del result


def _bad_grid(runner):
    return Grid(
        name="broken",
        seed=1,
        runner=runner,
        parameters={"x": [1]},
        primary_metric="cost",
        check=no_check,
    )


class TestSerialVsJobs:
    def test_byte_identical_artifacts(self):
        serial = run_grid(SELFTEST_GRID, jobs=1)
        fanned = run_grid(SELFTEST_GRID, jobs=4)
        assert serial.canonical_json() == fanned.canonical_json()

    def test_wall_clock_stays_out_of_canonical(self):
        result = run_grid(SELFTEST_GRID)
        assert "wall" not in result.canonical_json()
        sidecar = result.wall_clock()
        assert sidecar["name"] == "selftest"
        assert sidecar["total_ms"] >= 0.0
        assert set(sidecar["cells"]) == {
            cell.cell.run_id for cell in result.cells
        }


class TestSchemaRoundTrip:
    def test_payload_validates_and_survives_json(self):
        result = run_grid(SELFTEST_GRID)
        text = result.canonical_json()
        reloaded = json.loads(text)
        validate_payload(reloaded)  # no exception
        assert reloaded["name"] == "selftest"
        assert reloaded["schema_version"] == 2
        assert len(reloaded["cells"]) == len(SELFTEST_GRID.cells())

    def test_tampered_payload_rejected(self):
        payload = json.loads(run_grid(SELFTEST_GRID).canonical_json())
        payload["cells"][0]["run_id"] = "nothex!"
        with pytest.raises(BenchSchemaError):
            validate_payload(payload)

    def test_duplicate_run_ids_rejected(self):
        payload = json.loads(run_grid(SELFTEST_GRID).canonical_json())
        payload["cells"][1]["run_id"] = payload["cells"][0]["run_id"]
        with pytest.raises(BenchSchemaError):
            validate_payload(payload)

    def test_missing_primary_metric_rejected(self):
        payload = json.loads(run_grid(SELFTEST_GRID).canonical_json())
        del payload["cells"][0]["metrics"]["cost_ms"]
        with pytest.raises(BenchSchemaError):
            validate_payload(payload)


class TestArtifacts:
    def test_write_output_and_baseline(self, tmp_path):
        result = run_grid(SELFTEST_GRID)
        out = tmp_path / "output"
        root = tmp_path / "root"
        paths = write_grid_artifacts(result, str(out), baseline_dir=str(root))
        assert [p.replace(str(tmp_path), "") for p in paths] == [
            "/output/BENCH_selftest.json",
            "/root/BENCH_selftest.json",
        ]
        a = (out / "BENCH_selftest.json").read_bytes()
        b = (root / "BENCH_selftest.json").read_bytes()
        assert a == b
        sidecar = json.loads((out / "BENCH_selftest.wallclock.json").read_text())
        assert sidecar["name"] == "selftest"
        assert not (root / "BENCH_selftest.wallclock.json").exists()

    def test_output_only_without_baseline_dir(self, tmp_path):
        result = run_grid(SELFTEST_GRID)
        paths = write_grid_artifacts(result, str(tmp_path / "output"))
        assert len(paths) == 1


class TestImportance:
    def test_selftest_ranking_is_predictable(self):
        # batching saves 40% of the page cost, cache only 20% of the
        # fixed cost — batching must outrank cache.
        importance = run_grid(SELFTEST_GRID).importance
        assert [entry["component"] for entry in importance] == [
            "batching",
            "cache",
        ]
        assert [entry["rank"] for entry in importance] == [1, 2]
        # Both components help: removing them raises cost_ms.
        assert all(entry["impact"] > 0 for entry in importance)
        assert importance[0]["impact"] > importance[1]["impact"]
        assert all(entry["n_points"] == 4 for entry in importance)

    def test_toggle_free_grid_has_empty_importance(self):
        grid = Grid(
            name="flat",
            seed=1,
            runner=selfless_runner,
            parameters={"x": [1, 2]},
            primary_metric="cost",
            check=no_check,
        )
        assert run_grid(grid).importance == []


def selfless_runner(params, seed):
    return {"cost": float(params["x"])}


class TestAccessors:
    def test_cell_and_metric_lookup(self):
        result = run_grid(SELFTEST_GRID)
        cell = result.cell(mode="fast", pages=10)
        assert cell.cell.toggles_off == ()
        assert result.metric(mode="fast", pages=10) == cell.metrics["cost_ms"]
        assert result.metric(
            "throughput", toggles_off=("cache",), mode="slow", pages=50
        ) == result.cell(("cache",), mode="slow", pages=50).metrics["throughput"]

    def test_ambiguous_and_missing_lookups_raise(self):
        result = run_grid(SELFTEST_GRID)
        with pytest.raises(KeyError, match="cells match"):
            result.cell(mode="fast")  # two pages values match
        with pytest.raises(KeyError, match="cells match"):
            result.cell(mode="warp", pages=10)
        with pytest.raises(KeyError, match="no metric"):
            result.cell(mode="fast", pages=10).metric("nope")


class TestRunnerErrors:
    def test_non_dict_metrics(self):
        with pytest.raises(BenchSpecError, match="metrics dict"):
            run_grid(_bad_grid(bad_metrics_runner))

    def test_missing_primary(self):
        with pytest.raises(BenchSpecError, match="primary metric"):
            run_grid(_bad_grid(missing_primary_runner))

    def test_bad_tuple_arity(self):
        with pytest.raises(BenchSpecError, match="tuple"):
            run_grid(_bad_grid(bad_tuple_runner))

    def test_non_scalar_metric_value(self):
        with pytest.raises(BenchSpecError, match="not a scalar"):
            run_grid(_bad_grid(non_scalar_runner))
