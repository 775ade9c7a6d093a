"""What tracing costs on the wire, and what the split word run's chains
look like.

A traced message carries its own ordinal and, when something caused it,
its parent's span; nothing else.  The two two-node workloads of the
benchmark set, at their full size, are run lit and with
``telemetry.disable()``: the difference in link bytes, per message, is
the trace context alone.  The parent's origin is spelled rather than
interned (see :mod:`repro.transport.codec`), which is most of the
remote word's figure.
"""

import pytest

from repro.apps import WubbleUConfig, build_split
from repro.bench.workloads import streaming_pair
from repro.observability import causal_chains
from repro.transport import INTERNET


def stream_pair():
    return streaming_pair(250, 1.0)


def remote_word():
    config = WubbleUConfig(level="word", seed=2, page_loads=1,
                           total_bytes=1_650, image_count=1, image_size=16)
    return build_split(config, network=INTERNET, batching=True)[0]


def run(build, *, lit=True):
    cosim = build()
    if not lit:
        cosim.telemetry.disable()
    cosim.run()
    return cosim.report()


@pytest.mark.parametrize("build, bound", [(stream_pair, 4.0),
                                          (remote_word, 11.0)],
                         ids=["stream_pair", "remote_word"])
def test_trace_bytes_per_message(build, bound):
    """12.4 and 22.4 bytes while a message carried its chain root, its
    span and parent as strings, and its hop."""
    lit = run(build).link_totals()
    dark = run(build, lit=False).link_totals()
    assert lit["messages"] == dark["messages"]
    assert (lit["bytes"] - dark["bytes"]) / lit["messages"] <= bound


def test_split_word_run_chains():
    """Chain roots and depth of the remote word run, derived by walking
    parents: eight chains, each rooted at a spontaneous send from
    ``host-a`` and at most three message edges deep (the figures the
    run carried when every message held its root and hop)."""
    chains = causal_chains(run(remote_word).trace_records)
    roots = [name for name, record in chains["sends"].items()
             if record["parent"] is None]
    assert (chains["max_hop"], len(roots)) == (3, 8)
    assert chains["orphan_receives"] == chains["broken_parents"] == []
