"""CLI 'all' target, isolated from the real (slow) experiments by stubbing
the experiment registries."""

from __future__ import annotations

import inspect

import pytest

from repro.analysis.curves import FigureResult, TableResult
from repro.experiments import cli


@pytest.fixture
def stub_experiments(monkeypatch):
    calls = []

    def fake_figure(scale=None, seed=None, runtime=None):
        calls.append(("figX", scale, seed))
        fig = FigureResult("figX", "stub", "x", "y")
        fig.add("c", [1, 2], [3, 4])
        return fig

    def fake_table(scale=None, seed=None, runtime=None):
        calls.append(("tabX", scale, seed))
        t = TableResult("tabX", "stub", columns=["a"])
        t.add_row(a=1)
        return t

    monkeypatch.setattr(cli, "FIGURES", {"figX": fake_figure})
    monkeypatch.setattr(cli, "TABLES", {"tabX": fake_table})
    return calls


class TestAllTarget:
    def test_all_runs_every_experiment(self, stub_experiments, capsys):
        # build_parser reads the (patched) registries at call time, so the
        # stub targets parse like real ones
        assert cli.main(["run", "all", "--scale", "small", "--seed", "7"]) == 0
        ran = [c[0] for c in stub_experiments]
        assert ran == ["figX", "tabX"]
        assert all(c[1] == "small" and c[2] == 7 for c in stub_experiments)
        out = capsys.readouterr().out
        assert "figX" in out and "tabX" in out

    def test_csv_written_for_each(self, stub_experiments, tmp_path, capsys):
        argv = ["run", "all", "--csv-dir", str(tmp_path), "--quiet"]
        assert cli.main(argv) == 0
        assert (tmp_path / "figX.csv").exists()
        assert (tmp_path / "tabX.csv").exists()


@pytest.mark.parametrize("name", sorted(cli.FIGURES) + sorted(cli.TABLES))
def test_every_experiment_accepts_runtime(name):
    """``run`` passes ``runtime=`` to every registry entry unconditionally."""
    fn = cli.FIGURES.get(name) or cli.TABLES.get(name)
    assert "runtime" in inspect.signature(fn).parameters
