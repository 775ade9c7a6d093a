"""Run-control files: parsing and application."""

import os

import pytest

from repro.core import ConfigurationError, Interface, Simulator
from repro.core.runcontrol import RunControl, load, parse
from repro.protocols import packet_protocol

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "examples")

SAMPLE = """
# a run control file
[runlevels]
tx.link = word
rx.link = word

[switchpoints]
when tx.localtime >= 3.0: tx.link -> packet, rx.link -> packet
repeat when net.sig == 1: tx -> packet

[sliders]
detail = tx.link, rx.link : transaction, packet, word

[checkpoints]
interval = 2.0

[run]
until = 10.0
"""


class TestParsing:
    def test_full_file(self):
        control = parse(SAMPLE)
        assert control.runlevels == {"tx.link": "word", "rx.link": "word"}
        assert len(control.switchpoints) == 2
        assert control.switchpoints[0].once is True
        assert control.switchpoints[1].once is False
        assert control.sliders["detail"] == (
            ["tx.link", "rx.link"], ["transaction", "packet", "word"])
        assert control.checkpoint_interval == 2.0
        assert control.until == 10.0

    def test_comments_and_blank_lines_ignored(self):
        control = parse("# nothing\n\n[run]\nuntil = 1.0  # trailing\n")
        assert control.until == 1.0

    def test_hash_inside_quotes_is_not_a_comment(self):
        control = parse('[switchpoints]\n'
                        'when net.tag == "x#1": A -> b  # a comment\n'
                        "when net.tag == 'y#2': A -> c\n")
        assert [sp.condition.value for sp in control.switchpoints] == \
            ["x#1", "y#2"]
        assert control.switchpoints[0].assignments == [("A", "b")]

    @pytest.mark.parametrize("bad", [
        "until = 1.0",                       # content before section
        "[weird]\nx = 1",                    # unknown section
        "[runlevels]\njusttext",             # missing '='
        "[sliders]\nname = a b",             # missing ':'
        "[sliders]\nname = : word",          # empty targets
        "[checkpoints]\ncadence = 1",        # unknown key
        "[checkpoints]\ninterval = nope",    # bad number
        "[checkpoints]\ninterval = -1",      # non-positive
        "[run]\nstop = 3",                   # unknown key
        "[switchpoints]\nbroken ->",         # bad switchpoint
    ])
    def test_malformed(self, bad):
        with pytest.raises(Exception):
            parse(bad)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.pia"
        path.write_text(SAMPLE)
        control = load(str(path))
        assert control.until == 10.0

    def test_load_missing_file(self):
        with pytest.raises(ConfigurationError):
            load("/nonexistent/run.pia")


def build_link_system():
    from repro.core import (FunctionComponent, ReceiveTransfer, Transfer,
                            WaitUntil)
    sim = Simulator()

    def sender(comp):
        for __ in range(6):
            yield WaitUntil(comp.local_time + 1.0)
            yield Transfer("link", b"x" * 100)

    def receiver(comp):
        while True:
            yield ReceiveTransfer("link")

    tx = FunctionComponent("tx", sender)
    tx.add_interface(Interface("link", packet_protocol(), out_port="o"))
    rx = FunctionComponent("rx", receiver)
    rx.add_interface(Interface("link", packet_protocol(), in_port="i"))
    sim.add(tx)
    sim.add(rx)
    sim.wire("sig", tx.port("o"), rx.port("i"))
    return sim, tx, rx


class TestApplication:
    def test_apply_configures_everything(self):
        sim, tx, rx = build_link_system()
        control = parse("""
        [runlevels]
        tx.link = word
        [switchpoints]
        when tx.localtime >= 3.0: tx.link -> packet
        [sliders]
        s = rx.link : transaction, packet, word
        [checkpoints]
        interval = 2.0
        """)
        sliders = control.apply(sim)
        assert tx.interface("link").level == "word"
        assert "s" in sliders
        sim.run()
        assert tx.interface("link").level == "packet"
        assert len(sim.subsystem.checkpoints) >= 2

    def test_run_respects_until(self):
        sim, tx, rx = build_link_system()
        control = parse("[run]\nuntil = 2.5\n")
        control.apply(sim)
        sim.run(until=control.until)
        assert sim.now <= 2.5
        assert sim.subsystem.scheduler.queue

    def test_apply_to_cosimulation(self):
        from repro.core import (Advance, FunctionComponent, Receive, Send)
        from repro.distributed import CoSimulation
        cosim = CoSimulation()
        ss_a = cosim.add_subsystem(cosim.add_node("na"), "sa")
        ss_b = cosim.add_subsystem(cosim.add_node("nb"), "sb")

        def produce(comp):
            for i in range(3):
                yield Advance(1.0)
                yield Send("out", i)

        def consume(comp):
            comp.got = []
            for __ in range(3):
                t, v = yield Receive("in")
                comp.got.append(v)

        p = FunctionComponent("p", produce, ports={"out": "out"})
        c = FunctionComponent("c", consume, ports={"in": "in"})
        ss_a.add(p)
        ss_b.add(c)
        channel = cosim.connect(ss_a, ss_b)
        channel.split_net(ss_a.wire("w", p.port("out")),
                          ss_b.wire("w", c.port("in")))
        control = parse("[checkpoints]\ninterval = 1.5\n")
        control.apply(cosim)
        cosim.run()
        assert c.got == [0, 1, 2]
        assert cosim.snapshot_interval == 1.5
        assert cosim.registry.completed()

    @pytest.mark.parametrize("executor", ["ThreadedCoSimulation",
                                          "MultiprocessCoSimulation"])
    def test_concurrent_executor_is_refused_by_name(self, executor):
        """Run levels are in-process only: a concurrent executor gets one
        ConfigurationError naming it, not an AttributeError half-way
        through the file."""
        import repro.distributed
        target = getattr(repro.distributed, executor)()
        control = load(os.path.join(EXAMPLES, "wubbleu.runcontrol"))
        with pytest.raises(ConfigurationError) as excinfo:
            control.apply(target)
        assert str(excinfo.value) == (
            f"run control cannot configure a {executor}: run levels, "
            "switchpoints and sliders are in-process only (a Simulator "
            "or a cooperative CoSimulation)")
