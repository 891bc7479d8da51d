"""Static checks of the CI workflow files.

* They parse as YAML with no duplicate mapping keys.  GitHub rejects a
  workflow with a repeated key; a last-wins parser would instead
  silently replace the earlier value (for example, one job's ``steps``
  with another's).  PyYAML's default loader is last-wins, so the loader
  here raises on any repeated key.
* A job that runs pytest over a module importing ``hypothesis`` at top
  level installs ``hypothesis``; otherwise collection fails on the
  runner.
* Every ``python -m repro ...`` command they run parses with the CLI's
  own parser, so a workflow cannot call a deleted subcommand or flag.
"""

from __future__ import annotations

import ast
import shlex
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml")

ROOT = Path(__file__).resolve().parents[1]
WORKFLOWS = sorted((ROOT / ".github" / "workflows").glob("*.yml"))


class _UniqueKeyLoader(yaml.SafeLoader):
    pass


def _unique_mapping(loader, node, deep=False):
    seen = set()
    for key_node, _ in node.value:
        key = loader.construct_object(key_node, deep=deep)
        if key in seen:
            raise yaml.constructor.ConstructorError(
                "while constructing a mapping", node.start_mark,
                f"found duplicate key {key!r}", key_node.start_mark,
            )
        seen.add(key)
    return loader.construct_mapping(node, deep=deep)


_UniqueKeyLoader.add_constructor(
    yaml.resolver.BaseResolver.DEFAULT_MAPPING_TAG, _unique_mapping
)


def test_workflows_exist():
    assert WORKFLOWS


@pytest.mark.parametrize("path", WORKFLOWS, ids=lambda p: p.name)
def test_workflow_has_no_duplicate_keys(path):
    doc = yaml.load(path.read_text(), Loader=_UniqueKeyLoader)
    assert isinstance(doc.get("jobs"), dict) and doc["jobs"]


def _test_modules(target: Path) -> list:
    """Modules pytest collects from *target* (pyproject's python_files)."""
    if target.is_file():
        return [target]
    return sorted(
        p for pattern in ("test_*.py", "bench_*.py") for p in target.rglob(pattern)
    )


def _imports_hypothesis(module: Path) -> bool:
    for node in ast.parse(module.read_text()).body:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "hypothesis" for name in names):
            return True
    return False


def _pytest_targets(command: str) -> list:
    """Paths each ``pytest`` call in a shell *command* collects; a call
    naming no path collects the whole suite (pyproject's testpaths)."""
    targets = []
    for line in command.replace("\\\n", " ").splitlines():
        if "pytest" not in line.split():
            continue
        tokens = shlex.split(line, comments=True)
        at = tokens.index("pytest")
        if at > 0 and tokens[at - 1] != "-m":
            continue  # "pytest" as an argument, e.g. of pip install
        paths = [
            ROOT / tok.split("::")[0]
            for tok in tokens[at + 1:]
            if not tok.startswith("-") and (ROOT / tok.split("::")[0]).exists()
        ]
        targets.extend(paths or [ROOT / "tests"])
    return targets


def _jobs():
    for path in WORKFLOWS:
        doc = yaml.safe_load(path.read_text())
        for name, job in doc["jobs"].items():
            runs = [step.get("run", "") for step in job.get("steps", [])]
            yield f"{path.name}:{name}", runs


def test_jobs_install_hypothesis_when_their_tests_import_it():
    suites = 0
    missing = []
    for job, runs in _jobs():
        installs = any(
            "pip install" in run and "hypothesis" in run.split() for run in runs
        )
        for target in (t for run in runs for t in _pytest_targets(run)):
            suites += 1
            needing = [m for m in _test_modules(target) if _imports_hypothesis(m)]
            if needing and not installs:
                missing.append(f"{job} runs {needing[0].relative_to(ROOT)}")
    assert suites, "no pytest invocation found in any workflow"
    assert not missing, "jobs that need hypothesis but do not install it: " + "; ".join(missing)


#: Shell tokens that end one command (``cmd &``, ``a && b``, ``a | b``).
_SHELL_OPERATORS = {"&", "&&", "||", "|", ";"}


def _repro_commands(command: str) -> list:
    """Argument lists of each ``python -m repro`` call in a shell
    *command*; env prefixes and a trailing ``&`` are not arguments."""
    calls = []
    for line in command.replace("\\\n", " ").splitlines():
        if "-m repro" not in line:
            continue
        tokens = shlex.split(line, comments=True)
        for at in range(len(tokens) - 2):
            if tokens[at + 1:at + 3] != ["-m", "repro"]:
                continue
            args = []
            for tok in tokens[at + 3:]:
                if tok in _SHELL_OPERATORS:
                    break
                args.append(tok)
            calls.append(args)
    return calls


def test_every_repro_command_parses():
    from repro.cli import build_parser

    parser = build_parser()
    calls = [(job, args) for job, runs in _jobs()
             for run in runs for args in _repro_commands(run)]
    assert calls, "no python -m repro call found in any workflow"
    bad = []
    for job, args in calls:
        try:
            parser.parse_args(args)
        except SystemExit:
            bad.append(f"{job}: repro {' '.join(args)}")
    assert not bad, "workflow commands the CLI rejects: " + "; ".join(bad)
