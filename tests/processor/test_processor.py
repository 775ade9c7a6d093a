"""Processor substrate: timing, memory, sync addresses, interrupts."""

import pytest

from repro.core import (
    Advance,
    ConfigurationError,
    ConsistencyViolation,
    FunctionComponent,
    Receive,
    Send,
    SimulationError,
    Simulator,
    SyncPolicy,
)
from repro.processor import (
    ARM7,
    GENERIC,
    PENTIUM_PRO_200,
    BasicBlockTimer,
    InterruptController,
    MemRead,
    MemWrite,
    Memory,
    ProcessorProfile,
    SoftwareComponent,
)


class TestTiming:
    def test_profile_seconds(self):
        assert PENTIUM_PRO_200.seconds(200) == pytest.approx(1e-6)

    def test_cycles_for_unknown_op_uses_default(self):
        profile = ProcessorProfile("p", 1e6, {"alu": 2}, default_cycles=7)
        assert profile.cycles_for("alu") == 2
        assert profile.cycles_for("teleport") == 7

    def test_block_command(self):
        timer = BasicBlockTimer(GENERIC)        # 1 MHz, 1 cycle/op
        cmd = timer.block(alu=5, load=3)
        assert isinstance(cmd, Advance)
        assert cmd.dt == pytest.approx(8e-6)
        assert timer.total_cycles == 8

    def test_negative_counts_rejected(self):
        timer = BasicBlockTimer(GENERIC)
        with pytest.raises(ConfigurationError):
            timer.cycles(alu=-1)

    def test_invalid_clock(self):
        with pytest.raises(ConfigurationError):
            ProcessorProfile("bad", 0)


class TestMemory:
    def test_little_endian_roundtrip(self):
        mem = Memory(64)
        mem.write(0, 0x11223344)
        assert mem.read(0) == 0x11223344
        assert mem.read(0, 1) == 0x44
        assert mem.read(3, 1) == 0x11

    def test_bounds_checked(self):
        mem = Memory(16)
        with pytest.raises(SimulationError):
            mem.read(14, 4)
        with pytest.raises(SimulationError):
            mem.write(-1, 0)

    def test_width_masking(self):
        mem = Memory(16)
        mem.write(0, 0x1FF, 1)
        assert mem.read(0, 1) == 0xFF

    def test_deepcopy_shares_table(self):
        import copy
        mem = Memory(16)
        clone = copy.deepcopy(mem)
        assert clone.table is mem.table
        clone.write(0, 1)
        assert mem.read(0) == 0   # data is copied

    def test_external_write_violation(self):
        from repro.core import SyncTable
        table = SyncTable(policy=SyncPolicy.OPTIMISTIC)
        mem = Memory(64, sync_table=table)
        mem.record_access(0x10, 5.0)      # CPU read at local time 5
        with pytest.raises(ConsistencyViolation):
            mem.external_write(0x10, 9, time=3.0)   # late interrupt write

    def test_external_write_ok_when_synchronous(self):
        from repro.core import SyncTable
        table = SyncTable(policy=SyncPolicy.OPTIMISTIC)
        table.mark_range(0x10, 0x14)
        mem = Memory(64, sync_table=table)
        mem.record_access(0x10, 5.0)
        mem.external_write(0x10, 9, time=3.0)
        assert mem.read(0x10) == 9


class Firmware(SoftwareComponent):
    """Reads a mailbox twice with compute in between."""

    def __init__(self, name, **kw):
        super().__init__(name, **kw)
        self.samples = []

    def firmware(self):
        yield self.timer.block(alu=10)
        first = yield MemRead(0x100)
        self.samples.append(first)
        yield self.timer.block(alu=100)
        second = yield MemRead(0x100)
        self.samples.append(second)
        yield MemWrite(0x104, second + 1)


class TestSoftwareComponent:
    def test_mem_commands_roundtrip(self):
        sim = Simulator()
        cpu = sim.add(Firmware("cpu"))
        cpu.memory.write(0x100, 41)
        sim.run()
        assert cpu.samples == [41, 41]
        assert cpu.memory.read(0x104) == 42

    def test_synchronous_address_forces_wait(self):
        """With 0x100 synchronous, the second read waits for system time,
        so a device write at an earlier stamp is visible."""
        sim = Simulator()
        cpu = sim.add(Firmware("cpu", synchronous_addresses=range(0x100, 0x104)))

        def device(comp):
            yield Advance(50e-6)
            yield Send("out", None)

        dev = sim.add(FunctionComponent("dev", device, ports={"out": "out"}))
        ctl = sim.add(InterruptControllerForTest("ctl", cpu.memory))
        sim.wire("irq", dev.port("out"), ctl.port("line0"))
        sim.run()
        # first read at ~10us (before write), second at ~110us local time,
        # but gated: it sees the device write from t=50us.
        assert cpu.samples[0] == 0
        assert cpu.samples[1] == 7

    def test_optimistic_detection_and_recovery(self):
        """The paper's dynamic flow: optimistic read runs ahead, the late
        write violates, the address is marked synchronous and the run is
        rewound — after which the result matches the static version."""
        sim = Simulator()
        cpu = sim.add(Firmware("cpu", sync_policy=SyncPolicy.OPTIMISTIC))

        def device(comp):
            yield Advance(50e-6)
            yield Send("out", None)

        dev = sim.add(FunctionComponent("dev", device, ports={"out": "out"}))
        ctl = sim.add(InterruptControllerForTest("ctl", cpu.memory))
        sim.wire("irq", dev.port("out"), ctl.port("line0"))
        sim.run_with_recovery(sync_tables=[cpu.sync_table])
        assert sim.recoveries >= 1
        assert 0x100 in cpu.sync_table.dynamic_marks
        assert cpu.samples == [0, 7]

    def test_checkpoint_restores_memory_in_place(self):
        sim = Simulator()
        cpu = sim.add(Firmware("cpu"))
        memory_object = cpu.memory
        cpu.memory.write(0x100, 5)
        sim.run(until=1e-6)
        cid = sim.checkpoint()
        cpu.memory.write(0x200, 123)
        sim.restore(cid)
        assert cpu.memory is memory_object
        assert cpu.memory.read(0x200) == 0

    def test_restore_replays_mem_reads(self):
        sim = Simulator()
        cpu = sim.add(Firmware("cpu"))
        cpu.memory.write(0x100, 9)
        sim.run()
        cid = sim.checkpoint()
        sim.restore(cid)
        assert cpu.samples == [9, 9]
        assert cpu.memory.read(0x104) == 10


class InterruptControllerForTest(InterruptController):
    """Writes value 7 into 0x100 when line0 fires."""

    def __init__(self, name, memory):
        super().__init__(name, memory, base_addr=0x300)
        self.add_port("line0")

    def on_event(self, port, time, value):
        self.memory.external_write(0x100, 7, time)


class TestInterruptController:
    def _system(self, *, policy=SyncPolicy.STATIC, static_marks=True):
        sim = Simulator()

        class Cpu(SoftwareComponent):
            def firmware(self):
                yield self.timer.block(alu=1)

        cpu = sim.add(Cpu("cpu", sync_policy=policy))
        ctl = InterruptController("ctl", cpu.memory, base_addr=0x400)
        ctl.add_line("uart")
        ctl.add_line("timer")
        if static_marks:
            ctl.mark_mailboxes_synchronous()
        sim.add(ctl)

        def device(comp):
            yield Advance(1.0)
            yield Send("out", 0xAB)
            yield Advance(1.0)
            yield Send("out", 0xCD)

        dev = sim.add(FunctionComponent("dev", device, ports={"out": "out"}))
        sim.wire("w", dev.port("out"), ctl.port("uart"))
        return sim, cpu, ctl

    def test_latches_payload_flag_and_count(self):
        sim, cpu, ctl = self._system()
        sim.run()
        uart = ctl.line("uart")
        assert cpu.memory.read(uart.data_addr) == 0xAB
        assert cpu.memory.read(uart.flag_addr) == 1
        assert cpu.memory.read(ctl.pending_count_addr) == 1
        assert ctl.delivered == 1
        assert ctl.dropped == 1     # second interrupt hit a full latch

    def test_ack_allows_next_interrupt(self):
        sim, cpu, ctl = self._system()
        sim.run(until=1.5)
        uart = ctl.line("uart")
        cpu.memory.write(uart.flag_addr, 0)   # firmware acks
        sim.run()
        assert cpu.memory.read(uart.data_addr) == 0xCD
        assert ctl.dropped == 0

    def test_duplicate_line_rejected(self):
        sim, cpu, ctl = self._system()
        with pytest.raises(ConfigurationError):
            ctl.add_line("uart")

    def test_mailboxes_marked_synchronous(self):
        sim, cpu, ctl = self._system()
        uart = ctl.line("uart")
        assert cpu.memory.table.is_synchronous(uart.flag_addr)
        assert cpu.memory.table.is_synchronous(uart.data_addr)
        assert cpu.memory.table.is_synchronous(ctl.pending_count_addr)
