#!/usr/bin/env python3
"""The paper's evaluation, end to end: load the 66 KB page through the
WubbleU system in every Table 1 configuration and print the comparison.

Then the split page twice more.  Once under the simulation run control
file ``wubbleu.runcontrol`` (paper section 2.1.3): the file sets the bus
interfaces' initial run levels, a switchpoint drops them to packet level
once the origin server starts serving, a second one (added in code, on a
net's signal) drops them to whole transactions at the modem's first
interrupt, and a detail slider over the same two interfaces stays live
for the designer to move.  And once in the
paper's deployment shape, each host in its own OS process, from the same
picklable system description the cooperative executor loads — the two
must finish bit for bit alike.

Run:  python examples/wubbleu_page_load.py  [--small]
"""

import os
import sys

# Self-contained fallback: allow running from a fresh checkout without
# installing the package or exporting PYTHONPATH.
try:
    import repro  # noqa: F401
except ModuleNotFoundError:
    import os
    import sys
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from repro.apps import (
    WubbleUConfig,
    build_split,
    fetch_like_hotjava,
    page_load,
    wubbleu_spec,
)
from repro.bench import PAPER_TABLE1, Table, format_count, format_seconds
from repro.core.runcontrol import load
from repro.core.runlevel import parse_switchpoint
from repro.distributed import WorkerPool, build
from repro.transport import INTERNET

RUNCONTROL = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "wubbleu.runcontrol")


def main():
    small = "--small" in sys.argv
    overrides = dict(total_bytes=12_000, image_count=2, image_size=48) \
        if small else {}

    table = Table("WubbleU page load — reproduction of Table 1",
                  ["configuration", "simulation time", "paper",
                   "inter-node msgs", "virtual time"])

    reference = fetch_like_hotjava()
    table.add("HotJava (no simulation)",
              format_seconds(reference.simulation_time),
              format_seconds(PAPER_TABLE1["HotJava"]), "0", "n/a")

    for remote in (False, True):
        for level in ("word", "packet"):
            key = f"{'remote' if remote else 'local'} {level} passage"
            print(f"running {key} ...", flush=True)
            result = page_load(level, remote=remote, network=INTERNET,
                               config=WubbleUConfig(level=level, **overrides))
            table.add(key, format_seconds(result.simulation_time),
                      format_seconds(PAPER_TABLE1.get(key)),
                      format_count(result.messages),
                      format_seconds(result.virtual_time))
    table.note("remote = cellular chip on a second node across an "
               "internet-model link; simulation time = CPU + modelled "
               "network wall time")
    table.show()
    run_control(overrides)
    process_per_node(overrides)


def run_control(overrides):
    control = load(RUNCONTROL)
    cosim, __, ___ = build_split(
        WubbleUConfig(level="packet", **overrides), network=INTERNET)
    sliders = control.apply(cosim)
    # A switchpoint may also watch a signal: once the modem has raised
    # its first interrupt, the bus handshake is trusted and the link
    # drops to whole transactions.
    cosim.add_switchpoint(parse_switchpoint(
        "when net.netirq == 1: Stack.bus -> transaction, "
        "NetIf.bus -> transaction"))
    bus = cosim.component("Stack").interface("bus")
    print(f"run control {os.path.basename(RUNCONTROL)}: Stack.bus starts "
          f"at {bus.level!r}")
    cosim.run(until=control.until)
    for when, switch in cosim.switchpoints.history:
        print(f"  switchpoint fired at t={when * 1e3:.2f} ms: {switch}")
    print(f"  page loaded at t={cosim.component('UI').page_loaded_at:.3f} s, "
          f"{len(cosim.registry.completed())} snapshots on the "
          f"{control.checkpoint_interval:g} s cadence; Stack.bus now "
          f"{bus.level!r}")
    link = sliders["link"]
    moves = [link.set(0), link.more_detail(), link.more_detail(),
             link.more_detail(), link.less_detail()]
    print(f"  slider 'link' over {link.levels}: moved through {moves}; "
          f"Stack.bus and NetIf.bus at {link.level!r}")
    assert bus.level == link.level == "packet"
    assert cosim.component("NetIf").interface("bus").level == "packet"


def process_per_node(overrides):
    spec = wubbleu_spec(WubbleUConfig(level="packet", **overrides))
    rows = {}
    with WorkerPool() as pool:
        for executor, kwargs in (("cosim", {}),
                                 ("multiprocess", {"pool": pool})):
            system = build(spec, executor, **kwargs)
            system.run()
            rows[executor] = (system.global_time(), sorted(
                (row["name"], row["time"], row["dispatched"])
                for row in system.report().subsystems))
    when, subsystems = rows["multiprocess"]
    print(f"one process per host: finished at t={when:.4f} s, "
          f"(subsystem, time, events) {subsystems}")
    assert rows["multiprocess"] == rows["cosim"]


if __name__ == "__main__":
    main()
