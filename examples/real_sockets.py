#!/usr/bin/env python3
"""Real sockets: thread-per-node over TCP, in one process.

Two Pia nodes run concurrently on their own threads of one process,
joined by genuine localhost TCP sockets (length-prefixed frames, blocking
safe-time calls).  A ping-pong workload exercises the bidirectional
safe-time discipline under true concurrency.  The paper's own deployment —
separate JVMs on two workstations — is a process per node: see the
multiprocess executor (``build(spec, "multiprocess")``).

Run:  python examples/real_sockets.py
"""

# Self-contained fallback: allow running from a fresh checkout without
# installing the package or exporting PYTHONPATH.
try:
    import repro  # noqa: F401
except ModuleNotFoundError:
    import os
    import sys
    sys.path.insert(0, os.path.join(
        os.path.dirname(os.path.abspath(__file__)), os.pardir, "src"))

from repro.core import Advance, FunctionComponent, Receive, Send
from repro.distributed import ThreadedCoSimulation
from repro.transport import TcpTransport


def main():
    with TcpTransport() as transport:
        runner = ThreadedCoSimulation(transport=transport)
        ss_a = runner.add_subsystem(runner.add_node("workstation-1"), "sa")
        ss_b = runner.add_subsystem(runner.add_node("workstation-2"), "sb")

        def ping(comp):
            comp.rtts = []
            for index in range(10):
                yield Advance(1.0)
                yield Send("tx", index)
                t, value = yield Receive("rx")
                comp.rtts.append((index, t))

        def pong(comp):
            while True:
                t, value = yield Receive("rx")
                yield Advance(0.5)
                yield Send("tx", value * value)

        a = FunctionComponent("ping", ping, ports={"tx": "out", "rx": "in"})
        b = FunctionComponent("pong", pong, ports={"tx": "out", "rx": "in"})
        ss_a.add(a)
        ss_b.add(b)
        channel = runner.connect(ss_a, ss_b)
        channel.split_net(ss_a.wire("fwd", a.port("tx")),
                          ss_b.wire("fwd", b.port("rx")))
        channel.split_net(ss_b.wire("rev", b.port("tx")),
                          ss_a.wire("rev", a.port("rx")))

        events = runner.run(timeout=60.0)
        print(f"dispatched {events} events across two threads over TCP")
        print(f"ping-pong rounds (virtual completion times): {a.rtts}")
        for (src, dst), stats in sorted(
                transport.accounting.links.items()):
            print(f"  {src} -> {dst}: {stats.messages} messages, "
                  f"{stats.bytes} bytes")
        assert [v for __, v in a.rtts] == [1.5 * (i + 1) for i in range(10)]


if __name__ == "__main__":
    main()
