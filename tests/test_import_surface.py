"""What importing the package pulls in, and what the word path imports.

Exact, not timed: the runtime needs no graph library (the topology rule,
the auto-cut and the Pamette levelisation are in-tree or standard
library), numpy arrives with the first image rather than with the
package, a process loads only the modules of what it runs (every package
namespace resolves its names on first use), nothing more loads once a
run is built, and delivering a word executes no ``import`` statement.
"""

import builtins
import importlib
import json
import os
import subprocess
import sys

import pytest

from repro.core import (
    Advance,
    FunctionComponent,
    Interface,
    Receive,
    ReceiveTransfer,
    Send,
    Simulator,
    Transfer,
)
from repro.distributed import CoSimulation
from repro.protocols import bus_protocol
from tests.examples.test_examples_run import _example_env

#: What no in-process cooperative run executes: the other executors and
#: the packages no fenced workload uses.  A module under one of these
#: in a cooperative run's process is load time paid for nothing.
NOT_COOPERATIVE = ("repro.distributed.multiprocess.coordinator",
                   "repro.distributed.multiprocess.worker",
                   "repro.distributed.threaded", "repro.hw", "repro.debug",
                   "repro.loader", "repro.tools")

_WUBBLEU = ("from repro.apps.wubbleu import WubbleUConfig, build_local, "
            "build_split\n"
            "from repro.transport.latency import INTERNET\n"
            "config = WubbleUConfig(level='word', seed=2, page_loads=1, "
            "total_bytes=800, image_count=1, image_size=8)\n")

#: The shapes of the three fenced ledger workloads, at their check size:
#: code that brings one up, leaving the un-run instance in ``run``.
FENCED = {
    "wubbleu_local_word": _WUBBLEU + "run = build_local(config)[0]\n",
    "stream_pair_coop": ("from repro.bench.workloads import streaming_pair\n"
                         "run = streaming_pair(50, 1.0)\n"),
    "wubbleu_remote_word": _WUBBLEU + ("run = build_split(config, "
                                       "network=INTERNET, "
                                       "batching=True)[0]\n"),
}


def _repro_modules(code):
    """``repro`` modules loaded by a fresh interpreter that runs ``code``
    and then calls ``mark()`` wherever it wants a reading: one sorted
    list per call."""
    prelude = ("import json, sys\n"
               "readings = []\n"
               "def mark():\n"
               "    readings.append(sorted(name for name in sys.modules\n"
               "                           if name.split('.')[0] == 'repro'))\n")
    done = subprocess.run(
        [sys.executable, "-c",
         prelude + code + "print(json.dumps(readings))\n"],
        env=_example_env(), timeout=120, capture_output=True, text=True,
        check=True)
    return json.loads(done.stdout)


def _under(modules, packages):
    return [name for name in modules
            if any(name == package or name.startswith(package + ".")
                   for package in packages)]


def _resolve_all(*packages):
    """Code that imports ``packages`` and resolves every name in their
    ``__all__`` — the most a caller of their public surface can load."""
    return ("import importlib\n"
            f"for package in {packages!r}:\n"
            "    module = importlib.import_module(package)\n"
            "    for name in module.__all__:\n"
            "        getattr(module, name)\n")


def test_no_graph_library_at_runtime():
    code = ("import json, sys\n"
            + _resolve_all("repro.distributed", "repro.hw", "repro.bench",
                           "repro.observability") +
            "print(json.dumps([name for name in ('networkx', 'scipy')\n"
            "                  if name in sys.modules]))\n")
    done = subprocess.run([sys.executable, "-c", code], env=_example_env(),
                          timeout=60, capture_output=True, text=True,
                          check=True)
    assert json.loads(done.stdout) == []


def test_no_command_line_or_http_server_at_runtime():
    """The status document is built in the multiprocess coordinator, its
    only producer (resolving ``repro.distributed.MultiprocessCoSimulation``
    loads the coordinator); the HTTP endpoint over it and its command
    line are ``repro.observability.serve``'s, not the executors'."""
    code = ("import json, sys\n"
            + _resolve_all("repro.distributed", "repro.observability") +
            "coordinator = sys.modules["
            "'repro.distributed.multiprocess.coordinator']\n"
            "assert callable(coordinator.status_snapshot)\n"
            "assert 'repro.observability.serve' not in sys.modules\n"
            "print(json.dumps([name for name in ('argparse', 'http.server')\n"
            "                  if name in sys.modules]))\n")
    done = subprocess.run([sys.executable, "-c", code], env=_example_env(),
                          timeout=60, capture_output=True, text=True,
                          check=True)
    assert json.loads(done.stdout) == []


def test_import_repro_loads_no_subpackage():
    [loaded] = _repro_modules("import repro\nmark()\n")
    assert loaded == ["repro"]


def test_cooperative_stream_pair_loads_no_other_executor():
    """Built, run and reported, the stream pair loads its executor only:
    no worker or coordinator body, no threads, no hardware, processor,
    debugger, loader or tool wrapper."""
    [loaded] = _repro_modules(FENCED["stream_pair_coop"]
                              + "run.run()\nrun.report()\nmark()\n")
    assert _under(loaded, NOT_COOPERATIVE + ("repro.processor",)) == []


def test_coordinator_loads_no_cooperative_executor():
    """The multiprocess coordinator runs no cooperative round loop, so
    importing it loads neither that executor nor its rollback: 56
    ``repro`` modules besides the C core."""
    [loaded] = _repro_modules(
        "import repro.distributed.multiprocess.coordinator\nmark()\n")
    assert _under(loaded, ("repro.distributed.executor",
                           "repro.distributed.optimistic")) == []
    assert len([name for name in loaded
                if name != "repro._native._core"]) == 56


@pytest.mark.parametrize("workload", sorted(FENCED))
def test_run_and_report_load_nothing_after_bring_up(workload):
    """What a fenced workload runs is loaded while it is brought up, so
    the ledger's ``setup_s`` pays all of it: no import cost moved into an
    unmeasured first ``run()`` or ``report()``."""
    up, done = _repro_modules(FENCED[workload]
                              + "mark()\nrun.run()\nrun.report()\nmark()\n")
    assert _under(up, NOT_COOPERATIVE) == []
    assert sorted(set(done) - set(up)) == []


def test_numpy_only_when_an_image_is_made():
    """``repro.apps.jpeg`` builds its numpy tables on first use, so the
    WubbleU application — which every ledger workload module imports —
    loads numpy only once a page is built."""
    code = ("import json, sys\n"
            + _resolve_all("repro.apps", "repro.distributed", "repro.bench",
                           "repro.observability") +
            "before = 'numpy' in sys.modules\n"
            "from repro.apps import jpeg\n"
            "jpeg.encode(jpeg.synthetic_image(8, 8))\n"
            "print(json.dumps([before, 'numpy' in sys.modules]))\n")
    done = subprocess.run([sys.executable, "-c", code], env=_example_env(),
                          timeout=60, capture_output=True, text=True,
                          check=True)
    assert json.loads(done.stdout) == [False, True]


def _words_over_a_bus():
    """One subsystem: 100 four-byte words through a word-level bus."""
    sim = Simulator()
    payload = bytes(range(200)) * 2     # 100 four-byte words

    def sender(comp):
        yield Transfer("bus", payload)

    def collector(comp):
        __, comp.got = yield ReceiveTransfer("bus")

    tx = FunctionComponent("tx", sender)
    tx.add_interface(Interface("bus", bus_protocol(), level="word",
                               out_port="o"))
    rx = FunctionComponent("rx", collector)
    rx.add_interface(Interface("bus", bus_protocol(), level="word",
                               in_port="i"))
    sim.add(tx)
    sim.add(rx)
    sim.wire("link", tx.port("o"), rx.port("i"))

    def delivered():
        return (rx.got == payload
                and tx.interfaces["bus"].sent_chunks >= 100)
    return sim, delivered


def _words_across_two_nodes():
    """Two nodes, cooperative executor, default telemetry: 100 words
    sent, encoded, carried, decoded and delivered across a channel."""
    cosim = CoSimulation()
    ss_rx = cosim.add_subsystem(cosim.add_node("n-rx"), "rx")
    ss_tx = cosim.add_subsystem(cosim.add_node("n-tx"), "tx")

    def produce(comp):
        for word in range(100):
            yield Advance(1.0)
            yield Send("out", word)

    def consume(comp):
        comp.got = []
        for __ in range(100):
            comp.got.append((yield Receive("in")))

    tx = FunctionComponent("tx", produce, ports={"out": "out"})
    rx = FunctionComponent("rx", consume, ports={"in": "in"})
    ss_tx.add(tx)
    ss_rx.add(rx)
    cosim.connect(ss_tx, ss_rx).split_net(ss_tx.wire("w", tx.port("out")),
                                          ss_rx.wire("w", rx.port("in")))
    return cosim, lambda: [word for __, word in rx.got] == list(range(100))


@pytest.mark.parametrize("make", [_words_over_a_bus, _words_across_two_nodes])
def test_word_delivery_executes_no_import_statement(monkeypatch, make):
    """The consume body and ``reassemble_step`` run once per delivered
    word, and across nodes so do the channel, the codec and the trace
    context; an ``import`` inside anything on that path — or a package
    name first looked up there — is a trip through the import machinery
    per word."""
    run, delivered = make()
    importers = []

    def spy(real):
        def spied(name, *args, **kwargs):
            importers.append(sys._getframe(1).f_code.co_filename)
            return real(name, *args, **kwargs)
        return spied

    monkeypatch.setattr(builtins, "__import__", spy(builtins.__import__))
    monkeypatch.setattr(importlib, "import_module",
                        spy(importlib.import_module))
    run.run()
    monkeypatch.undo()

    assert delivered()
    src = os.path.join("src", "repro", "")
    assert [name for name in importers if src in name] == []
