"""What importing the package pulls in, and what the word path imports.

Exact, not timed: the runtime needs no graph library (the topology rule,
the auto-cut and the Pamette levelisation are in-tree or standard
library), numpy arrives with the first image rather than with the
package, and delivering a word executes no ``import`` statement.
"""

import builtins
import json
import os
import subprocess
import sys

from repro.core import (
    FunctionComponent,
    Interface,
    ReceiveTransfer,
    Simulator,
    Transfer,
)
from repro.protocols import bus_protocol
from tests.examples.test_examples_run import _example_env


def test_no_graph_library_at_runtime():
    code = ("import json, sys\n"
            "import repro.distributed, repro.hw, repro.bench\n"
            "import repro.observability\n"
            "print(json.dumps([name for name in ('networkx', 'scipy')\n"
            "                  if name in sys.modules]))\n")
    done = subprocess.run([sys.executable, "-c", code], env=_example_env(),
                          timeout=60, capture_output=True, text=True,
                          check=True)
    assert json.loads(done.stdout) == []


def test_no_command_line_or_http_server_at_runtime():
    """The status document lives in ``repro.observability.live`` and the
    multiprocess coordinator imports it; the module's console and the
    HTTP endpoint are the CLI's, not the executors'."""
    code = ("import json, sys\n"
            "import repro.distributed, repro.observability\n"
            "print(json.dumps([name for name in ('argparse', 'http.server')\n"
            "                  if name in sys.modules]))\n")
    done = subprocess.run([sys.executable, "-c", code], env=_example_env(),
                          timeout=60, capture_output=True, text=True,
                          check=True)
    assert json.loads(done.stdout) == []


def test_numpy_only_when_an_image_is_made():
    """``repro.apps.jpeg`` builds its numpy tables on first use, so the
    WubbleU application — which every ledger workload module imports —
    loads numpy only once a page is built."""
    code = ("import json, sys\n"
            "import repro.apps.wubbleu, repro.distributed, repro.bench\n"
            "import repro.observability\n"
            "before = 'numpy' in sys.modules\n"
            "from repro.apps import jpeg\n"
            "jpeg.encode(jpeg.synthetic_image(8, 8))\n"
            "print(json.dumps([before, 'numpy' in sys.modules]))\n")
    done = subprocess.run([sys.executable, "-c", code], env=_example_env(),
                          timeout=60, capture_output=True, text=True,
                          check=True)
    assert json.loads(done.stdout) == [False, True]


def test_word_delivery_executes_no_import_statement(monkeypatch):
    """The consume body and ``reassemble_step`` run once per delivered
    word; an ``import`` inside anything on that path is a trip through
    the import machinery per word."""
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

    importers = []
    real_import = builtins.__import__

    def spy(name, *args, **kwargs):
        importers.append(sys._getframe(1).f_code.co_filename)
        return real_import(name, *args, **kwargs)

    monkeypatch.setattr(builtins, "__import__", spy)
    sim.run()
    monkeypatch.undo()

    assert rx.got == payload
    assert tx.interfaces["bus"].sent_chunks >= 100
    kernel = tuple(os.path.join("src", "repro", package, "")
                   for package in ("core", "protocols"))
    assert [name for name in importers
            if any(where in name for where in kernel)] == []
