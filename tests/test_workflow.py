"""The CI workflow parses, and each of its pytest steps selects tests."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def steps_running_pytest():
    """(job, step name, the arguments after ``pytest``) for each step that runs pytest."""
    yaml = pytest.importorskip("yaml")  # PyYAML is not a dependency
    jobs = yaml.safe_load(WORKFLOW.read_text())["jobs"]
    steps = []
    for job, spec in jobs.items():
        for step in spec["steps"]:
            argv = shlex.split(step.get("run", ""))
            if "pytest" in argv:
                steps.append((job, step["name"], argv[argv.index("pytest") + 1 :]))
    return steps


def test_every_pytest_step_collects_tests():
    steps = steps_running_pytest()
    assert {job for job, _, _ in steps} == {"tier1", "lowest-pins"}
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    # the collections side by side; --verbosity=-1 comes last and undoes the
    # step's own -q, so that each collected test prints its node id
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", *args, "--verbosity=-1"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        for _, _, args in steps
    ]
    for (job, name, _), proc in zip(steps, procs):
        out, err = proc.communicate()
        # pytest exits 5 when it collects nothing
        assert proc.returncode == 0, (job, name, out[-2000:], err)
        assert any("::" in line for line in out.splitlines()), (job, name, out)
