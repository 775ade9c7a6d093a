#!/usr/bin/env python3
"""Evaluating a vendor's web-served component inside your circuit.

The paper's closing motivation: Intel's remote evaluation facility let
designers try i960 processors over the web, and "the Pia framework pushes
this concept a little further and allows the user to patch web based
components into a simulated circuit for more extensive evaluation"
(section 1).  Pia's class loader fetches component classes from URLs and
reloads them without restarting the simulator (section 3.2).

This example plays the vendor: it publishes a DSP component as a source
file (our offline stand-in for a vendor URL), loads it through the class
loader, patches it into a running testbench — then the vendor ships an
improved revision and the designer reloads and re-evaluates, same circuit,
no restart.

Run:  python examples/vendor_component_evaluation.py
"""

import os
import tempfile
import textwrap

# Self-contained fallback: allow running from a fresh checkout without
# installing the package or exporting PYTHONPATH.
try:
    import repro  # noqa: F401
except ModuleNotFoundError:
    import os
    import sys
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from repro.core import Advance, FunctionComponent, Receive, Send, Simulator
from repro.loader import ComponentLoader

VENDOR_V1 = textwrap.dedent("""
    from repro.core import ProcessComponent, Receive, Send
    from repro.core.port import PortDirection

    class VendorDsp(ProcessComponent):
        '''Rev A: plain pass-through gain block (gain = 2).'''

        REVISION = "A"

        def __init__(self, name):
            super().__init__(name)
            self.add_port("in", PortDirection.IN)
            self.add_port("out", PortDirection.OUT)

        def run(self):
            while True:
                t, x = yield Receive("in")
                yield Send("out", 2 * x)
""")

VENDOR_V2 = VENDOR_V1.replace('gain block (gain = 2)',
                              'gain block with DC removal') \
    .replace('REVISION = "A"', 'REVISION = "B"') \
    .replace("yield Send(\"out\", 2 * x)",
             "yield Send(\"out\", 2 * x - 10)")


def evaluate(loader, spec, samples):
    """Patch the vendor part into a fresh testbench and measure it."""
    sim = Simulator()
    dsp = sim.add(loader.instantiate(spec, "dsp"))

    def stimulus(comp):
        for sample in samples:
            yield Advance(1e-3)
            yield Send("out", sample)

    def capture(comp):
        comp.got = []
        while True:
            t, value = yield Receive("in")
            comp.got.append(value)

    stim = FunctionComponent("stim", stimulus, ports={"out": "out"})
    cap = FunctionComponent("cap", capture, ports={"in": "in"})
    sim.add(stim)
    sim.add(cap)
    sim.wire("x", stim.port("out"), dsp.port("in"))
    sim.wire("y", dsp.port("out"), cap.port("in"))
    sim.run()
    return type(dsp).REVISION, cap.got


def main():
    samples = [5, 10, 15]
    with tempfile.TemporaryDirectory() as vendor_site:
        part = os.path.join(vendor_site, "vendor_dsp.py")
        with open(part, "w") as handle:
            handle.write(VENDOR_V1)
        loader = ComponentLoader()
        spec = f"file://{part}:VendorDsp"     # the "vendor URL"

        revision, outputs = evaluate(loader, spec, samples)
        print(f"rev {revision}: {samples} -> {outputs}")

        # The vendor publishes revision B; reload without restarting.
        with open(part, "w") as handle:
            handle.write(VENDOR_V2)
        os.utime(part, (1e9, 2e9))            # ensure a fresh mtime
        revision, outputs = evaluate(loader, spec, samples)
        print(f"rev {revision}: {samples} -> {outputs}")
        print(f"loader stats: {loader.loads} loads, "
              f"{loader.cache_hits} cache hits")

        # The same part on the loader's search path (the "classpath"),
        # loaded twice from its cached namespace, then forgotten and
        # loaded again from the source file.
        local = ComponentLoader(search_paths=[vendor_site])
        relative = "vendor_dsp.py:VendorDsp"
        first, again = local.load(relative), local.load(relative)
        local.invalidate(relative)
        fresh = local.load(relative)
        print(f"search path: rev {first.REVISION}, cached copy is the same "
              f"class: {again is first}, after invalidate a fresh one: "
              f"{fresh is not first} ({local.cache_hits} cache hit)")

    # Not found through the custom channels: the ordinary import system.
    builtin = loader.load("repro.apps.cellular:CellularModem")
    print(f"built-in fallback: {builtin.__module__}.{builtin.__name__}")


if __name__ == "__main__":
    main()
