"""Hardware in the loop: Pamette netlists, devices, remote servers."""

import pytest

from repro.core import (
    Advance,
    ConfigurationError,
    FunctionComponent,
    HardwareStubError,
    Receive,
    Send,
    Simulator,
)
from repro.hw import (
    REG_CONTROL,
    REG_DATA,
    REG_STATUS,
    Bitstream,
    HardwareComponent,
    HardwareStub,
    RemoteHardwareClient,
    RemoteHardwareServer,
    SimulatedPamette,
    TimerDevice,
    UartDevice,
    counter_bitstream,
)


class TestBitstream:
    def test_counter_counts(self):
        board = SimulatedPamette(counter_bitstream(4))
        board.run_for(5)
        assert board.peek(0x0) == 5
        board.run_for(11)
        assert board.peek(0x0) == 0     # wrapped at 16

    def test_wrap_interrupt(self):
        board = SimulatedPamette(counter_bitstream(3, irq_on_wrap=True))
        records = board.run_for(20)
        # carry rises when count reaches 7: ticks 7 and 15.
        assert [r.tick for r in records] == [7, 15]
        assert all(r.line == "wrap" for r in records)

    def test_stall_freezes_state_not_time(self):
        board = SimulatedPamette(counter_bitstream(4))
        board.run_for(3)
        board.stall()
        board.run_for(5)
        assert board.read_time() == 8
        assert board.peek(0x0) == 3
        board.resume()
        board.run_for(1)
        assert board.peek(0x0) == 4

    def test_input_register_feeds_logic(self):
        bs = Bitstream("andbox")
        bs.add_input_register(0x10, "a", 2)
        bs.and_gate("y", "a[0]", "a[1]")
        bs.add_output_register(0x20, ["y"])
        board = SimulatedPamette(bs)
        assert board.peek(0x20) == 0
        board.poke(0x10, 0b11)
        assert board.peek(0x20) == 1
        board.poke(0x10, 0b01)
        assert board.peek(0x20) == 0

    def test_combinational_loop_rejected(self):
        bs = Bitstream("loop")
        bs.add_lut("a", ["b"], 0b01)
        bs.add_lut("b", ["a"], 0b01)
        with pytest.raises(ConfigurationError):
            SimulatedPamette(bs)

    def test_undriven_signal_rejected(self):
        bs = Bitstream("dangling")
        bs.add_lut("y", ["ghost"], 0b01)
        with pytest.raises(ConfigurationError):
            SimulatedPamette(bs)

    def test_duplicate_driver_rejected(self):
        bs = Bitstream("dup")
        bs.add_input("x")
        with pytest.raises(ConfigurationError):
            bs.add_lut("x", [], 0)

    def test_lut_width_enforced(self):
        bs = Bitstream("wide")
        for name in "abcde":
            bs.add_input(name)
        with pytest.raises(ConfigurationError):
            bs.add_lut("y", list("abcde"), 0)

    def test_peek_unknown_register(self):
        board = SimulatedPamette(counter_bitstream(2))
        with pytest.raises(HardwareStubError):
            board.peek(0x99)
        with pytest.raises(HardwareStubError):
            board.poke(0x0, 1)      # counter reg is read-only


class TestDevices:
    def test_timer_fires_periodically(self):
        timer = TimerDevice(period=10)
        timer.poke(REG_CONTROL, 1)
        records = timer.run_for(35)
        assert [r.tick for r in records] == [10, 20, 30]
        assert timer.peek(REG_STATUS) == 3

    def test_timer_disabled_by_default(self):
        timer = TimerDevice(period=5)
        assert timer.run_for(20) == []

    def test_uart_loopback_latency(self):
        uart = UartDevice(divisor=4)        # 40 ticks per byte
        uart.poke(REG_DATA, 0x55)
        records = uart.run_for(100)
        assert len(records) == 1
        assert records[0].tick == 40
        assert records[0].payload == 0x55
        assert uart.peek(REG_STATUS) == 1
        assert uart.peek(REG_DATA) == 0x55
        assert uart.peek(REG_STATUS) == 0

    def test_uart_fifo_order(self):
        """Bytes share one line: each lands a byte time after the one
        before it, not all at once."""
        uart = UartDevice(divisor=1)
        for b in [1, 2, 3]:
            uart.poke(REG_DATA, b)
        records = uart.run_for(100)
        assert [(r.tick, r.payload) for r in records] == \
            [(10, 1), (20, 2), (30, 3)]
        assert [uart.peek(REG_DATA) for __ in range(3)] == [1, 2, 3]

    def test_uart_idle_line_sends_from_now(self):
        """With nothing in flight a byte takes one byte time from the
        poke, not from the last byte sent long before."""
        uart = UartDevice(divisor=1)
        uart.poke(REG_DATA, 7)
        assert [(r.tick, r.payload) for r in uart.run_for(50)] == [(10, 7)]
        uart.poke(REG_DATA, 8)
        uart.poke(REG_DATA, 9)
        assert [(r.tick, r.payload) for r in uart.run_for(50)] == \
            [(60, 8), (70, 9)]


class TestStubContract:
    def test_hardware_without_state_save_refuses_it(self):
        """Hardware not designed with Pia in mind cannot be rewound: the
        stub's default save/restore refuse by name."""
        class PlainCounter(HardwareStub):
            def read_time(self):
                return 0

            def set_time(self, ticks):
                pass

            def run_for(self, ticks):
                return []

            def stall(self):
                pass

            def resume(self):
                pass

            def peek(self, addr):
                return 0

            def poke(self, addr, value):
                pass

        stub = PlainCounter()
        assert not stub.supports_state_save
        with pytest.raises(HardwareStubError, match="PlainCounter cannot "
                                                    "save state"):
            stub.save_state()
        with pytest.raises(HardwareStubError, match="cannot restore"):
            stub.restore_state(None)


class TestHardwareComponent:
    def test_timer_interrupts_reach_simulation(self):
        sim = Simulator()
        timer = TimerDevice(clock_hz=1e6, period=100)   # fires every 100us
        timer.poke(REG_CONTROL, 1)
        hw = HardwareComponent("hw", timer, window=250e-6, lifetime=1e-3,
                               irq_lines=["timer"])
        got = []

        def listener(comp):
            while True:
                t, v = yield Receive("in")
                got.append((round(t * 1e6), v))

        lst = FunctionComponent("lst", listener, ports={"in": "in"})
        sim.add(hw)
        sim.add(lst)
        sim.wire("irq", hw.port("timer"), lst.port("in"))
        sim.run()
        assert [t for t, __ in got] == [100, 200, 300, 400, 500,
                                        600, 700, 800, 900, 1000]

    def test_pokes_cross_mmio_port(self):
        sim = Simulator()
        timer = TimerDevice(clock_hz=1e6, period=50)
        hw = HardwareComponent("hw", timer, window=100e-6, lifetime=1e-3,
                               irq_lines=["timer"])

        def enabler(comp):
            yield Send("out", (REG_CONTROL, 1))   # enable at t=0

        en = FunctionComponent("en", enabler, ports={"out": "out"})

        def sinkhole(comp):
            while True:
                yield Receive("in")

        sink = FunctionComponent("sink", sinkhole, ports={"in": "in"})
        sim.add(hw)
        sim.add(en)
        sim.add(sink)
        sim.wire("mmio", en.port("out"), hw.port("mmio"))
        sim.wire("irq", hw.port("timer"), sink.port("in"))
        sim.run()
        assert hw.pokes_applied == 1
        assert hw.interrupts_raised > 0

    def test_unknown_irq_line_raises(self):
        sim = Simulator()
        timer = TimerDevice(period=10)
        timer.poke(REG_CONTROL, 1)
        hw = HardwareComponent("hw", timer, window=1e-4, lifetime=1e-3,
                               irq_lines=[])    # "timer" not wired
        sim.add(hw)
        with pytest.raises(HardwareStubError):
            sim.run()

    def test_checkpoint_restore_replays_hw_responses(self):
        sim = Simulator()
        timer = TimerDevice(clock_hz=1e6, period=100)
        timer.poke(REG_CONTROL, 1)
        hw = HardwareComponent("hw", timer, window=250e-6, lifetime=1e-3,
                               irq_lines=["timer"])

        class Collector(FunctionComponent):
            pass

        def listener(comp):
            comp.got = []
            while True:
                t, v = yield Receive("in")
                comp.got.append(round(t * 1e6))

        lst = FunctionComponent("lst", listener, ports={"in": "in"})
        sim.add(hw)
        sim.add(lst)
        sim.wire("irq", hw.port("timer"), lst.port("in"))
        sim.run(until=500e-6)
        cid = sim.checkpoint()
        sim.run()
        full = list(lst.got)
        sim.restore(cid)
        assert lst.got == [100, 200, 300, 400, 500]
        sim.run()
        assert lst.got == full


class TestRemoteHardware:
    def _system(self):
        from repro.distributed import CoSimulation
        cosim = CoSimulation()
        lab = cosim.add_node("lab")           # hardware host
        desk = cosim.add_node("desk")         # designer's host
        server = RemoteHardwareServer(lab)
        timer = TimerDevice(clock_hz=1e6, period=100)
        timer.poke(REG_CONTROL, 1)
        server.attach("timer0", timer)
        return cosim, lab, desk, server

    def test_client_proxies_full_contract(self):
        cosim, lab, desk, server = self._system()
        client = RemoteHardwareClient(desk, "lab", "timer0")
        assert client.remote_type == "TimerDevice"
        assert client.clock_hz == 1e6
        client.set_time(0)
        records = client.run_for(250)
        assert [r.tick for r in records] == [100, 200]
        assert client.peek(REG_STATUS) == 2
        client.stall()
        assert client.run_for(100) == []
        client.resume()
        assert server.calls_served > 4

    def test_unknown_hardware_name(self):
        cosim, lab, desk, server = self._system()
        with pytest.raises(Exception):
            RemoteHardwareClient(desk, "lab", "ghost")

    def test_remote_hardware_in_cosimulation(self):
        """Fig. 1's 'remote hardware connection': a hardware component on
        one node drives a stub served by another node."""
        cosim, lab, desk, server = self._system()
        ss = cosim.add_subsystem(desk, "design")
        client = RemoteHardwareClient(desk, "lab", "timer0")
        hw = HardwareComponent("hw", client, window=250e-6, lifetime=1e-3,
                               irq_lines=["timer"])

        def listener(comp):
            comp.got = []
            while True:
                t, v = yield Receive("in")
                comp.got.append(round(t * 1e6))

        lst = FunctionComponent("lst", listener, ports={"in": "in"})
        ss.add(hw)
        ss.add(lst)
        ss.wire("irq", hw.port("timer"), lst.port("in"))
        cosim.run()
        assert lst.got[:3] == [100, 200, 300]
        # every hardware interaction crossed the transport
        acct = cosim.transport.accounting
        assert acct.links[("desk", "lab")].messages > 0

    def test_duplicate_attach_rejected(self):
        cosim, lab, desk, server = self._system()
        with pytest.raises(HardwareStubError):
            server.attach("timer0", TimerDevice())


def _timer():
    return TimerDevice(clock_hz=1e6, period=7), \
        lambda hw: hw.poke(REG_CONTROL, 1), \
        lambda hw: hw.peek(REG_STATUS)


def _uart():
    def send(hw):
        for byte in b"Pi!":
            hw.poke(REG_DATA, byte)
    return UartDevice(divisor=1), send, lambda hw: hw.peek(REG_STATUS)


def _pamette():
    return SimulatedPamette(counter_bitstream(3, irq_on_wrap=True)), \
        lambda hw: None, \
        lambda hw: hw.peek(0x0)


def _records(records):
    return [(r.tick, r.line, r.payload) for r in records]


def _free_run(hw, stimulus, observe):
    stimulus(hw)
    first = _records(hw.run_for(30))
    second = _records(hw.run_for(25))
    return [first, second, observe(hw), hw.read_time()]


def _stall_and_resume(hw, stimulus, observe):
    stimulus(hw)
    before = _records(hw.run_for(10))
    hw.stall()
    stalled = _records(hw.run_for(20))
    held = observe(hw)
    hw.resume()
    after = _records(hw.run_for(40))
    assert stalled == []
    return [before, held, after, observe(hw), hw.read_time()]


def _save_and_restore(hw, stimulus, observe):
    stimulus(hw)
    hw.run_for(5)
    state = hw.save_state()
    first = _records(hw.run_for(40))
    hw.restore_state(state)
    replay = _records(hw.run_for(40))
    assert replay == first
    return [first, observe(hw), hw.read_time()]


def _set_time(hw, stimulus, observe):
    hw.set_time(100)
    stimulus(hw)
    return [_records(hw.run_for(30)), observe(hw), hw.read_time()]


class TestRemoteParity:
    """Paper section 2.3: a device behind a remote hardware server answers
    every stub call exactly as the same device attached locally does."""

    DEVICES = {"timer": _timer, "uart": _uart, "pamette": _pamette}
    SCENARIOS = {"free-run": _free_run, "stall-resume": _stall_and_resume,
                 "save-restore": _save_and_restore, "set-time": _set_time}

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    @pytest.mark.parametrize("device", sorted(DEVICES))
    def test_remote_transcript_equals_local(self, device, scenario):
        from repro.distributed import CoSimulation
        run = self.SCENARIOS[scenario]
        local_hw, stimulus, observe = self.DEVICES[device]()
        local = run(local_hw, stimulus, observe)

        cosim = CoSimulation()
        lab = cosim.add_node("lab")
        desk = cosim.add_node("desk")
        server = RemoteHardwareServer(lab)
        served_hw, stimulus, observe = self.DEVICES[device]()
        server.attach("dut", served_hw)
        client = RemoteHardwareClient(desk, "lab", "dut")
        assert client.remote_type == type(served_hw).__name__
        assert client.supports_state_save
        remote = run(client, stimulus, observe)

        assert remote == local
        assert any(isinstance(part, list) and part for part in local), \
            "the scenario raised no interrupt"
        assert served_hw.read_time() == local_hw.read_time()
        assert server.calls_served == client.calls_made
        assert cosim.transport.accounting.links[("desk", "lab")].messages \
            >= client.calls_made
