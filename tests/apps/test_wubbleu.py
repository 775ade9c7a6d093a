"""The WubbleU system: content, framing, local and split page loads."""

import pytest

from repro.apps import (
    ASSIGN_SPLIT,
    WubbleUConfig,
    build_design,
    build_local,
    build_page,
    build_split,
    encode_request,
    encode_response,
    fetch_like_hotjava,
    page_load,
    parse_request,
    parse_response,
    run_page_load,
)
from repro.core import (
    Advance,
    FunctionComponent,
    Interface,
    ReceiveTransfer,
    Send,
    SimulationError,
    Transfer,
)
from repro.distributed import ChannelMode, CoSimulation
from repro.observability import TraceKind
from repro.transport import LAN

#: A small page keeps unit tests fast; benchmarks use the full 66 KB.
SMALL = dict(total_bytes=12_000, image_count=2, image_size=48)


def small_config(level="packet", **overrides) -> WubbleUConfig:
    params = dict(SMALL)
    params.update(overrides)
    return WubbleUConfig(level=level, **params)


class TestContent:
    def test_exact_budget(self):
        page = build_page(total_bytes=30_000, image_count=3, image_size=64)
        assert page.total_bytes == 30_000

    def test_paper_page_is_66kb(self):
        page = build_page()
        assert page.total_bytes == 66_000
        assert len(page.images) == 4

    def test_resources_resolvable(self):
        page = build_page(**{**SMALL})
        for path in ["/index.html"] + sorted(page.images):
            assert page.resource(path)
        with pytest.raises(SimulationError):
            page.resource("/nothere")

    def test_images_too_big_rejected(self):
        with pytest.raises(SimulationError):
            build_page(total_bytes=1_000, image_count=4, image_size=160)

    def test_html_references_all_images(self):
        from repro.apps.html import parse
        page = build_page(**{**SMALL})
        doc = parse(page.html)
        assert sorted(doc.images) == sorted(page.images)


class TestFraming:
    def test_request_roundtrip(self):
        assert parse_request(encode_request("/index.html")) == "/index.html"

    def test_response_roundtrip(self):
        body = b"\x00\x01payload"
        assert parse_response(encode_response(body)) == body

    def test_malformed_request(self):
        with pytest.raises(SimulationError):
            parse_request(b"POST / HTTP/1.1\r\n\r\n")

    def test_length_mismatch(self):
        good = encode_response(b"abcdef")
        with pytest.raises(SimulationError):
            parse_response(good[:-1])


class TestLocalPageLoad:
    def test_page_loads_completely(self):
        cosim, __, page = build_local(small_config())
        result = run_page_load(cosim, location="local", level="packet")
        assert result.bytes_loaded == page.total_bytes
        assert result.virtual_time > 0
        assert result.messages == 0          # nothing left the node
        ui = cosim.component("UI")
        assert ui.summary["images"] == 2
        assert "Pia" in ui.summary["title"]

    def test_all_levels_same_payload(self):
        loads = {}
        for level in ("word", "packet", "transaction"):
            cosim, __, page = build_local(small_config(level))
            result = run_page_load(cosim, location="local", level=level)
            loads[level] = result
            assert result.bytes_loaded == page.total_bytes
        # finer detail => strictly more events
        assert loads["word"].events > loads["packet"].events \
            > loads["transaction"].events

    def test_virtual_time_identical_across_configs(self):
        """Detail level changes rendering granularity, and distribution
        changes where things run — the *simulated* behaviour keeps the
        same virtual timing within the codec's timing model."""
        cosim_a, __, ___ = build_local(small_config("packet"))
        a = run_page_load(cosim_a, location="local", level="packet")
        cosim_b, __, ___ = build_split(small_config("packet"), network=LAN)
        b = run_page_load(cosim_b, location="remote", level="packet")
        assert a.virtual_time == pytest.approx(b.virtual_time)
        assert a.bytes_loaded == b.bytes_loaded

    def test_modem_and_server_stats(self):
        cosim, __, ___ = build_local(small_config())
        run_page_load(cosim, location="local", level="packet")
        netif = cosim.component("NetIf")
        server = cosim.component("Server")
        origin = cosim.component("Origin")
        stack = cosim.component("Stack")
        assert netif.frames_up == netif.frames_down == 3   # page + 2 images
        assert server.requests_proxied == 3
        assert origin.requests_served == 3
        assert stack.requests_handled == 3
        assert stack.irq_count > 0


class TestSplitPageLoad:
    def test_remote_traffic_is_accounted(self):
        cosim, deployment, __ = build_split(small_config(), network=LAN)
        result = run_page_load(cosim, location="remote", level="packet")
        assert result.messages > 0
        assert result.network_delay > 0
        assert set(deployment.splits) == {"bus_fwd", "bus_bwd", "netirq"}

    def test_word_level_floods_the_wire(self):
        word = page_load("word", remote=True, network=LAN,
                         config=small_config("word"))
        packet = page_load("packet", remote=True, network=LAN,
                           config=small_config("packet"))
        assert word.messages > 20 * packet.messages
        assert word.network_delay > 5 * packet.network_delay

    def test_optimistic_split_matches_conservative(self):
        conservative = page_load("packet", remote=True, network=LAN,
                                 config=small_config())
        optimistic = page_load("packet", remote=True, network=LAN,
                               mode=ChannelMode.OPTIMISTIC,
                               config=small_config())
        assert optimistic.virtual_time == \
            pytest.approx(conservative.virtual_time)
        assert optimistic.bytes_loaded == conservative.bytes_loaded


class TestRunlevelSwitching:
    def test_switchpoint_changes_level_mid_run(self):
        """The paper's headline trick: drop detail on the remote link
        while the bulk transfer happens."""
        cosim, __, ___ = build_local(small_config("word"))
        cosim.add_switchpoint(
            "when Stack.localtime >= 0.02: "
            "Stack.bus -> packet, NetIf.bus -> packet")
        result = run_page_load(cosim, location="local", level="mixed")
        stack = cosim.component("Stack")
        assert stack.interface("bus").level == "packet"
        # Fewer events than pure word level, more than pure packet.
        cosim_w, __, ___ = build_local(small_config("word"))
        pure_word = run_page_load(cosim_w, location="local", level="word")
        assert result.events < pure_word.events

    def test_slider_over_the_link(self):
        cosim, __, ___ = build_local(small_config("word"))
        slider = cosim.slider(["Stack.bus", "NetIf.bus"],
                              ["transaction", "packet", "word"])
        slider.set(1)
        assert cosim.component("Stack").interface("bus").level == "packet"


class TestHotJavaReference:
    def test_reference_loads_everything(self):
        page = build_page(**{**SMALL})
        result = fetch_like_hotjava(page)
        assert result.bytes_loaded == page.total_bytes
        assert result.images_decoded == 2
        assert result.wall_seconds < 1.0

    def test_reference_much_faster_than_simulation(self):
        page = build_page(**{**SMALL})
        ref = fetch_like_hotjava(page)
        sim = page_load("word", remote=False, config=small_config("word"))
        assert sim.cpu_seconds > ref.wall_seconds


class TestWordReactionCrossesAtItsStimulus:
    """Why the remote word link can derive no lookahead from its
    declarations (DESIGN.md §5): the syslink codec's header takes no time,
    the nets and the channel have no delay, and the modem pulses ``irq``
    with a zero-delay ``Send`` — so a word-level ``Transfer`` emitted in
    reaction to an incoming word crosses stamped at that word's instant.
    A promise of any lookahead above zero on this link must fail this
    test, or come with a model change that moves the 1.4935 s page."""

    @staticmethod
    def bus(comp):
        comp.add_interface(Interface("bus", WubbleUConfig().bus_protocol(),
                                     level="word", out_port="bus_tx",
                                     in_port="bus_rx"))
        return comp

    def test_a_reply_crosses_at_the_instant_of_the_word_it_answers(self):
        def stack(comp):
            yield Advance(1.0)
            yield Transfer("bus", b"GET /index.html")
            comp.reply = yield ReceiveTransfer("bus")

        def modem(comp):
            comp.stimulus, request = yield ReceiveTransfer("bus")
            yield Transfer("bus", request[::-1])
            comp.replied = comp.local_time
            yield Send("irq", 1)

        cosim = CoSimulation()
        handheld = cosim.add_subsystem(cosim.add_node("host-a"), "handheld")
        cellsite = cosim.add_subsystem(cosim.add_node("host-b"), "cellsite")
        a = handheld.add(self.bus(FunctionComponent(
            "Stack", stack, ports={"irq": "in"})))
        b = cellsite.add(self.bus(FunctionComponent(
            "NetIf", modem, ports={"irq": "out"})))
        channel = cosim.connect(handheld, cellsite)
        channel.split_net(handheld.wire("bus_fwd", a.port("bus_tx")),
                          cellsite.wire("bus_fwd", b.port("bus_rx")))
        channel.split_net(cellsite.wire("bus_bwd", b.port("bus_tx")),
                          handheld.wire("bus_bwd", a.port("bus_rx")))
        channel.split_net(cellsite.wire("netirq", b.port("irq")),
                          handheld.wire("netirq", a.port("irq")))
        cosim.run()

        assert a.reply[1] == b"lmth.xedni/ TEG"
        signals = [record for record in cosim.telemetry.trace_buffer
                   if record.kind == TraceKind.MSG_SEND
                   and record.details["message_kind"] == "signal"]
        stamps = {record.details["span"]: record.time for record in signals}
        back = [record for record in signals
                if record.subject == "host-b->host-a"]
        # The reply's header crosses at the stamp of the word it answers,
        # and the irq at the stamp of the last reply word.
        assert back[0].time == stamps[back[0].details["parent"]] \
            == b.stimulus
        assert back[-1].time == back[-2].time == b.replied
