"""Every shipped example must run to completion, as a subprocess.

The examples double as integration tests of the public API surface; this
keeps them from rotting.  Slow ones run with reduced workloads.
"""

import os
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "..",
                            "examples")
SRC_DIR = os.path.abspath(os.path.join(EXAMPLES_DIR, "..", "src"))


def _example_env():
    """The caller's environment with ``src`` prepended to ``PYTHONPATH``.

    The examples import ``repro`` from the source tree; the test process
    may have it importable via conftest path tricks or an editable
    install, but the example *subprocesses* inherit only the environment.
    """
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR + (os.pathsep + existing if existing else "")
    return env

FAST_EXAMPLES = [
    "quickstart.py",
    "chaos.py",
    "iss_firmware.py",
    "optimistic_recovery.py",
    "hardware_in_the_loop.py",
    "debug_and_waves.py",
    "migrate_to_hardware.py",
    "vendor_component_evaluation.py",
    "legacy_tool_wrapper.py",
    "real_sockets.py",
    "multiprocess_nodes.py",
    "migrate_node.py",
    "protocol_library.py",
]


def run_example(name, *args, timeout=120, cwd=None):
    path = os.path.abspath(os.path.join(EXAMPLES_DIR, name))
    return subprocess.run(
        [sys.executable, path, *args], capture_output=True, text=True,
        timeout=timeout, cwd=cwd or EXAMPLES_DIR, env=_example_env())


@pytest.mark.parametrize("name", FAST_EXAMPLES)
def test_example_runs(name, tmp_path):
    # run in a scratch directory so examples that write artefacts
    # (waves.vcd) do not litter the repository
    result = run_example(name, cwd=str(tmp_path))
    assert result.returncode == 0, (
        f"{name} failed:\n{result.stdout}\n{result.stderr}")
    assert result.stdout.strip(), f"{name} printed nothing"


def test_wubbleu_page_load_small():
    result = run_example("wubbleu_page_load.py", "--small", timeout=300)
    assert result.returncode == 0, result.stderr
    assert "Table 1" in result.stdout
    assert "remote word passage" in result.stdout


def test_distributed_codesign():
    result = run_example("distributed_codesign.py", timeout=300)
    assert result.returncode == 0, result.stderr
    assert "suggested balanced partition" in result.stdout


def test_example_count_matches_readme_claim():
    shipped = sorted(f for f in os.listdir(EXAMPLES_DIR)
                     if f.endswith(".py"))
    assert len(shipped) >= 10
    covered = set(FAST_EXAMPLES) | {"wubbleu_page_load.py",
                                    "distributed_codesign.py"}
    assert covered == set(shipped), (
        "examples without a smoke test: "
        f"{sorted(set(shipped) - covered)}")
