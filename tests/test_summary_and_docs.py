"""Final integration: the run-everything summary, CLI solver paths, docs."""

from pathlib import Path

import numpy as np
import pytest


class TestSummaryExperiment:
    @pytest.mark.slow
    def test_summary_runs_every_experiment(self):
        from repro.bench.experiments import summary

        out = summary.run(full=False)
        for name in ("Table I", "Table IV (single)", "Fig 4", "Fig 10", "Fig 11"):
            assert name in out
        assert "FAILED" not in out


class TestCLIReconstruct:
    @pytest.mark.parametrize("solver", ["sirt", "cgls", "art", "icd", "fbp"])
    def test_each_solver(self, solver, capsys):
        from repro.cli import main

        assert main(["reconstruct", "--solver", solver, "--size", "16",
                     "--iterations", "5"]) == 0
        assert "relative error" in capsys.readouterr().out

    def test_calibrate_command(self, capsys):
        from repro.cli import main

        assert main(["calibrate"]) == 0
        assert "cscv-z" in capsys.readouterr().out


class TestDocumentation:
    REPO = Path(__file__).resolve().parent.parent

    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
            assert (self.REPO / name).is_file(), name

    def test_design_has_per_experiment_index(self):
        text = (self.REPO / "DESIGN.md").read_text()
        for token in ("Table I", "Fig 11", "bench_table4", "bench_fig10"):
            assert token in text

    def test_experiments_records_every_table_and_figure(self):
        text = (self.REPO / "EXPERIMENTS.md").read_text()
        for token in [f"Fig {i}" for i in range(1, 12)] + [
            "Table I", "Table II", "Table III", "Table IV",
        ]:
            assert token in text, token

    def test_walkthrough_code_blocks_reference_real_api(self):
        text = (self.REPO / "docs" / "cscv-walkthrough.md").read_text()
        # the names the doc tells users to import must exist
        import repro

        for name in ("build_ct_matrix", "CSCVZMatrix", "CSCVMMatrix", "CSCVParams"):
            assert name in text
            assert hasattr(repro, name)

    def test_every_bench_file_mentioned_in_design(self):
        design = (self.REPO / "DESIGN.md").read_text()
        for bench in sorted((self.REPO / "benchmarks").glob("bench_table*.py")):
            assert bench.name in design, bench.name

    def test_examples_are_runnable_scripts(self):
        import ast

        examples = sorted((self.REPO / "examples").glob("*.py"))
        assert len(examples) >= 3
        for path in examples:
            tree = ast.parse(path.read_text())
            assert ast.get_docstring(tree), f"{path.name} missing docstring"

    def test_public_modules_have_docstrings(self):
        import importlib
        import pkgutil

        import repro

        missing = []
        for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
            if "._" in info.name:
                continue
            mod = importlib.import_module(info.name)
            if not (mod.__doc__ or "").strip():
                missing.append(info.name)
        assert not missing, f"modules without docstrings: {missing}"
