"""The ``repro bench`` / ``repro bench-diff`` verbs, end to end."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.bench import BenchSpecError, load_grids
from repro.cli import main

# One bench tree for the whole module: discovery imports grid modules by
# package name, and Python caches imports — a fresh tree per test under
# the same package name would silently reuse the first one.
TREE = "clibenchtree"


@pytest.fixture(scope="module")
def bench_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("benchcli")
    tree = root / TREE
    tree.mkdir()
    (tree / "bench_toy.py").write_text(
        textwrap.dedent(
            '''
            """Tiny deterministic grid for CLI round-trip tests."""

            from repro.bench import Grid


            def toy_runner(params, seed):
                return {"cost": float(params["pages"]) + seed % 3}


            def toy_check(result):
                assert result.metric(pages=20) > result.metric(pages=10)


            GRID = Grid(
                name="toy",
                seed=1985,
                runner=toy_runner,
                check=toy_check,
                parameters={"pages": [10, 20]},
                primary_metric="cost",
            )
            '''
        )
    )
    return tree


def test_list_renders_grid_summaries(bench_dir, capsys):
    assert main(["bench", "--dir", str(bench_dir), "--list"]) == 0
    out = capsys.readouterr().out
    assert "toy" in out and "2 cells" in out and "gate cost" in out


def test_bench_writes_output_only_by_default(bench_dir, capsys):
    assert main(["bench", "--dir", str(bench_dir)]) == 0
    out = capsys.readouterr().out
    artifact = bench_dir / "output" / "BENCH_toy.json"
    assert artifact.exists()
    assert str(artifact) in out
    assert not (bench_dir.parent / "BENCH_toy.json").exists()
    payload = json.loads(artifact.read_text())
    assert payload["name"] == "toy"
    assert len(payload["cells"]) == 2


def test_write_baselines_lands_at_tree_root(bench_dir, capsys):
    assert main(["bench", "--dir", str(bench_dir), "--write-baselines"]) == 0
    capsys.readouterr()
    baseline = bench_dir.parent / "BENCH_toy.json"
    assert baseline.exists()
    assert baseline.read_bytes() == (
        bench_dir / "output" / "BENCH_toy.json"
    ).read_bytes()


def test_bench_diff_passes_on_fresh_baselines(bench_dir, capsys):
    assert main(["bench-diff", "--dir", str(bench_dir)]) == 0
    out = capsys.readouterr().out
    assert "0 gating findings" in out


def test_synthetic_regression_fails_the_gate(bench_dir, capsys):
    artifact = bench_dir / "output" / "BENCH_toy.json"
    payload = json.loads(artifact.read_text())
    payload["cells"][0]["metrics"]["cost"] *= 2
    artifact.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")

    assert main(["bench-diff", "--dir", str(bench_dir)]) == 1
    captured = capsys.readouterr()
    assert "FAIL regression" in captured.out
    assert "trajectory gate FAILED" in captured.err

    # A loose enough CLI tolerance lets the same drift through.
    assert (
        main(["bench-diff", "--dir", str(bench_dir), "--tolerance", "2.0"]) == 0
    )
    capsys.readouterr()

    # Repricing restores the honest artifact and the gate.
    assert main(["bench", "--dir", str(bench_dir)]) == 0
    assert main(["bench-diff", "--dir", str(bench_dir)]) == 0
    capsys.readouterr()


def test_unknown_grid_name_exits_2(bench_dir, capsys):
    assert main(["bench", "--dir", str(bench_dir), "no_such_grid"]) == 2
    assert "no_such_grid" in capsys.readouterr().err


def test_missing_tree_exits_2(tmp_path, capsys):
    empty = tmp_path / "nothing"
    empty.mkdir()
    assert main(["bench", "--dir", str(empty)]) == 2
    assert "no bench_*.py" in capsys.readouterr().err


def _tree(tmp_path, package, body):
    """A one-module bench tree under its own package name (imports are
    cached by package name, so every tree needs a fresh one)."""
    tree = tmp_path / package
    tree.mkdir()
    (tree / "bench_many.py").write_text(textwrap.dedent(body))
    return tree


_TWO_GRIDS = """
    from repro.bench import Grid


    def cost(params, seed):
        return {"cost": 1.0}


    def holds(result):
        assert result.metric() == 1.0


    def lost(result):
        assert result.metric() > 1.0, "the conclusion no longer holds"


    GRIDS = (
        Grid(name="first", seed=1985, runner=cost, check=holds, primary_metric="cost"),
        Grid(name="%s", seed=1985, runner=cost, check=%s, primary_metric="cost"),
    )
"""


def test_tuple_of_grids_lists_and_runs_every_grid(tmp_path, capsys):
    tree = _tree(tmp_path, "tuplebenchtree", _TWO_GRIDS % ("second", "holds"))
    assert main(["bench", "--dir", str(tree), "--list"]) == 0
    out = capsys.readouterr().out
    assert "first: 1 cells" in out and "second: 1 cells" in out
    assert main(["bench", "--dir", str(tree)]) == 0
    capsys.readouterr()
    for name in ("first", "second"):
        assert (tree / "output" / f"BENCH_{name}.json").exists()


def test_failed_check_exits_1_naming_the_grid(tmp_path, capsys):
    tree = _tree(tmp_path, "failbenchtree", _TWO_GRIDS % ("broken", "lost"))
    assert main(["bench", "--dir", str(tree)]) == 1
    captured = capsys.readouterr()
    assert "bench: broken check FAILED" in captured.err
    assert "assert result.metric() > 1.0" in captured.err
    assert "the conclusion no longer holds" in captured.err
    assert "first" not in captured.err
    assert "first: check passed" in captured.out
    # The failing grid does not stop the run: every artifact is written.
    for name in ("first", "broken"):
        assert (tree / "output" / f"BENCH_{name}.json").exists()


def test_optimized_interpreter_is_refused(bench_dir):
    # -O strips asserts, so every check would pass vacuously.
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-O", "-m", "repro", "bench", "--dir", str(bench_dir)]
    done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert "without -O" in done.stderr


def test_duplicate_name_inside_a_tuple_is_rejected(tmp_path):
    tree = _tree(tmp_path, "dupbenchtree", _TWO_GRIDS % ("first", "holds"))
    with pytest.raises(BenchSpecError, match="duplicate grid name 'first'"):
        load_grids(str(tree))


def test_module_without_a_grid_is_rejected(tmp_path):
    tree = _tree(tmp_path, "gridlessbenchtree", "GRIDS = ()\n")
    with pytest.raises(BenchSpecError, match="found 0"):
        load_grids(str(tree))
