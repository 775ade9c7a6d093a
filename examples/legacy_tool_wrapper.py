#!/usr/bin/env python3
"""Connecting a legacy design tool through a customized wrapper.

"Design tools can have built in support for Pia sockets ... but if not,
the tools can be connected through a customized wrapper" (paper section
2).  Here the legacy tool is a stand-alone checker process — imagine a
vendor's golden-model simulator — that knows nothing about Pia: it reads
JSON on stdin and writes JSON on stdout.  The wrapper runs it as a
subprocess and splices it between two native components; the checker's
compute time (its ``advance`` actions) lands in virtual time like any
other component's.  The checker also answers the wrapper's optional
``save``/``restore`` requests, so it takes part in checkpoint and
rollback: the run is rewound to a checkpoint taken after two words and
replayed, and the tool's own count of checked words rewinds with it.

Run:  python examples/legacy_tool_wrapper.py
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
from repro.tools import ExternalToolComponent, python_tool_argv

#: The legacy tool: a parity checker with a 100 us check latency.
CHECKER_TOOL = textwrap.dedent("""
    import json, sys

    def reply(**msg):
        sys.stdout.write(json.dumps(msg) + "\\n")
        sys.stdout.flush()

    checked = 0
    for line in sys.stdin:
        msg = json.loads(line)
        if msg["op"] == "init":
            reply(op="log", text="golden checker v1.7 attached")
            reply(op="yield")
        elif msg["op"] == "deliver":
            word = msg["value"]
            checked += 1
            parity = bin(word).count("1") % 2
            reply(op="advance", dt=100e-6)
            reply(op="send", port="out",
                  value={"word": word, "parity": parity, "n": checked})
            reply(op="yield")
        elif msg["op"] == "save":
            reply(op="state", state={"checked": checked})
        elif msg["op"] == "restore":
            checked = msg["state"]["checked"]
            reply(op="ok")
        elif msg["op"] == "quit":
            break
""")


def main():
    with tempfile.TemporaryDirectory() as tooldir:
        tool_path = os.path.join(tooldir, "golden_checker.py")
        with open(tool_path, "w") as handle:
            handle.write(CHECKER_TOOL)

        sim = Simulator("wrapped-tool-demo")
        checker = sim.add(ExternalToolComponent(
            "checker", python_tool_argv(tool_path), supports_state=True))

        def dut(comp):
            for word in (0b1011, 0b1111, 0b0001, 0b0110):
                yield Advance(1e-3)
                yield Send("out", word)

        def verdicts(comp):
            comp.got = []
            while True:
                t, report = yield Receive("in")
                comp.got.append((round(t * 1e3, 2), report))

        device = sim.add(FunctionComponent("dut", dut, ports={"out": "out"}))
        sink = sim.add(FunctionComponent("sink", verdicts,
                                         ports={"in": "in"}))
        sim.wire("stim", device.port("out"), checker.port("in"))
        sim.wire("result", checker.port("out"), sink.port("in"))

        try:
            sim.run(until=2.5e-3)
            cut = sim.checkpoint("two words checked")
            sim.run()
            first = list(sink.got)
            sim.restore(cut)
            print(f"rewound to t={sim.now * 1e3:g} ms: "
                  f"{len(sink.got)} verdicts kept")
            sim.run()
        finally:
            checker.close()

        print(f"tool said: {checker.tool_log}")
        for time_ms, report in sink.got:
            print(f"  t={time_ms} ms  word=0b{report['word']:04b} "
                  f"parity={report['parity']}")
        assert [r["parity"] for __, r in sink.got] == [1, 0, 1, 0]
        assert sink.got == first and sink.got[-1][1]["n"] == 4
        print(f"checked {checker.deliveries} words through the wrapper")


if __name__ == "__main__":
    main()
