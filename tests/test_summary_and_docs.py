"""Final integration: the run-everything summary, CLI solver paths, docs."""

import os
import subprocess
import sys
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
        # every name a python block of the README or docs/ imports from
        # repro must exist, as an attribute or a submodule (``fig3``)
        import ast
        import importlib
        import re

        docs = [self.REPO / "README.md", *sorted((self.REPO / "docs").glob("*.md"))]
        imported, missing = [], []
        for path in docs:
            for block in re.findall(r"```python\n(.*?)```", path.read_text(), re.S):
                for node in ast.walk(ast.parse(block)):
                    if (isinstance(node, ast.ImportFrom)
                            and (node.module or "").split(".")[0] == "repro"):
                        imported += [(path.name, node.module, a.name)
                                     for a in node.names]
        assert any(doc == "cscv-walkthrough.md" for doc, _, _ in imported)
        for doc, module, name in imported:
            if hasattr(importlib.import_module(module), name):
                continue
            try:
                importlib.import_module(f"{module}.{name}")
            except ImportError:
                missing.append(f"{doc}: from {module} import {name}")
        assert not missing, missing

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

    @pytest.mark.parametrize(
        "script", sorted((REPO / "examples").glob("*.py")), ids=lambda p: p.name
    )
    def test_example_runs_at_size_16(self, script, tmp_path):
        env = dict(os.environ, REPRO_CACHE="0")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(self.REPO / "src"), env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, str(script), "16"], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]

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
