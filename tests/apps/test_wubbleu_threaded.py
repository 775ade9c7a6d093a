"""WubbleU on the thread-per-node executor: the paper's real deployment.

The evaluation ran the split WubbleU on two workstations as separate
processes; this test runs the same split on two OS threads joined by the
transport, and checks the result matches the deterministic cooperative
executor."""

import pytest

from repro.apps import ASSIGN_SPLIT, WubbleUConfig, build_design
from repro.distributed import ThreadedCoSimulation
from repro.distributed.partition import deploy as coop_deploy

SMALL = dict(total_bytes=8_000, image_count=1, image_size=48)


def _deploy_threaded(config):
    design, page = build_design(config)
    runner = ThreadedCoSimulation()
    coop_deploy(design, ASSIGN_SPLIT, runner,
                placement={"handheld": "host-a", "cellsite": "host-b"})
    return runner, design, page


def test_threaded_split_matches_cooperative():
    config = WubbleUConfig(level="packet", **SMALL)
    runner, design, page = _deploy_threaded(config)
    runner.run(timeout=90.0)
    ui = design.components["UI"]
    assert ui.page_loaded_at is not None
    threaded_time = ui.page_loaded_at
    threaded_bytes = design.components["Browser"].bytes_received
    assert threaded_bytes == page.total_bytes

    # cooperative reference
    from repro.distributed import CoSimulation
    config2 = WubbleUConfig(level="packet", **SMALL)
    design2, page2 = build_design(config2)
    cosim = CoSimulation()
    coop_deploy(design2, ASSIGN_SPLIT, cosim)
    cosim.run()
    assert design2.components["UI"].page_loaded_at == \
        pytest.approx(threaded_time)
