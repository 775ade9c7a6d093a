"""System builders for the WubbleU benchmark (paper section 4, Fig. 6).

"We will focus on a particular implementation that includes a simple
cellular connection to a server which connects to the Internet, and most
of the functionality is on the handheld unit. ...  In this architecture,
all processes are mapped to the processor, with the exception of the
network interface which was mapped to the cellular communication chip."

Two placements reproduce Table 1's *local* and *remote* rows:

* **local** — the whole system in one subsystem on one node;
* **split** — the handheld processes on one node, the cellular chip (and
  everything beyond it) on another, joined by a channel over a configurable
  network model.  This is "remote operation" of the chip.

The detail level of the system-bus link (``word``/``packet``/
``transaction``) is the experiment's other axis.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.errors import SimulationError
from ..distributed.channel import ChannelMode
from ..distributed.executor import CoSimulation
from ..distributed.partition import Deployment, Design, deploy, spec_of
from ..distributed.spec import SystemSpec
from ..protocols.base import Protocol
from ..protocols.bus import TransactionCodec
from ..protocols.packetized import packet_protocol
from ..transport.latency import INTERNET, SAME_HOST, LatencyModel
from .cellular import CellularModem
from .content import DEFAULT_TOTAL_BYTES, PageContent, build_page
from .modules import (
    BaseStation,
    Browser,
    HandwritingRecognizer,
    ProtocolStack,
    UserInterface,
)
from .webserver import WebServer

#: Component-to-subsystem maps for the two placements.
HANDHELD = "handheld"
CELLSITE = "cellsite"

ASSIGN_LOCAL = {name: HANDHELD for name in
                ("HWR", "UI", "Browser", "Stack", "NetIf", "Server",
                 "Origin")}
ASSIGN_SPLIT = {
    "HWR": HANDHELD, "UI": HANDHELD, "Browser": HANDHELD,
    "Stack": HANDHELD,
    "NetIf": CELLSITE, "Server": CELLSITE, "Origin": CELLSITE,
}
#: Subsystem-to-node map of both placements.
PLACEMENT = {HANDHELD: "host-a", CELLSITE: "host-b"}


@dataclass
class WubbleUConfig:
    """All the knobs of the experiment."""

    #: Detail level of the system-bus link: "word" | "packet" | "transaction".
    level: str = "packet"
    url: str = "/index.html"
    total_bytes: int = DEFAULT_TOTAL_BYTES
    image_count: int = 4
    image_size: int = 160
    quality: int = 50
    seed: int = 7
    #: System bus: a 20 MB/s embedded bus, 4-byte words, 1 KB packets.
    bus_packet_size: int = 1024
    bus_word_width: int = 4
    bus_cycle_time: float = 2e-7
    bus_bandwidth: float = 20e6
    #: The cellular air link: ~1 Mbit/s, 512 B frames.
    air_bandwidth: float = 125e3
    air_packet_size: int = 512
    air_packet_overhead: float = 2e-3
    #: Base-station-to-origin WAN: abstract transaction link.
    wan_bandwidth: float = 1e6
    wan_latency: float = 20e-3
    origin_service_latency: float = 5e-3
    #: Pages loaded in one browsing session (amortises fixed costs).
    page_loads: int = 1
    #: "model" = the behavioural CellularModem; "hardware" = the
    #: HardwareBackedModem driving a ModemChip behind the stub contract —
    #: the paper's gradual migration to real hardware.
    modem_backend: str = "model"
    #: Optional pre-built stub for the hardware backend (e.g. a
    #: RemoteHardwareClient pointing at a lab node).
    modem_stub: Optional[object] = None

    def bus_protocol(self) -> Protocol:
        return packet_protocol(
            "syslink", packet_size=self.bus_packet_size,
            word_width=self.bus_word_width, cycle_time=self.bus_cycle_time,
            bandwidth=self.bus_bandwidth)

    def air_protocol(self) -> Protocol:
        return packet_protocol(
            "air", packet_size=self.air_packet_size,
            bandwidth=self.air_bandwidth,
            per_packet_overhead=self.air_packet_overhead,
            cycle_time=8.0 / self.air_bandwidth)

    def wan_protocol(self) -> Protocol:
        return Protocol("wan", {
            "transaction": TransactionCodec(self.wan_bandwidth,
                                            self.wan_latency)})


def build_design(config: WubbleUConfig) -> Tuple[Design, PageContent]:
    """The placement-independent WubbleU design (Fig. 5's module graph)."""
    page = build_page(total_bytes=config.total_bytes,
                      image_count=config.image_count,
                      image_size=config.image_size,
                      quality=config.quality, seed=config.seed)
    design = Design("wubbleu")
    design.add(HandwritingRecognizer("HWR", url=config.url,
                                     repeats=config.page_loads))
    design.add(UserInterface("UI", page_loads=config.page_loads))
    design.add(Browser("Browser"))
    design.add(ProtocolStack("Stack", bus_protocol=config.bus_protocol(),
                             level=config.level))
    if config.modem_backend == "model":
        design.add(CellularModem("NetIf", bus_protocol=config.bus_protocol(),
                                 air_protocol=config.air_protocol(),
                                 level=config.level))
    elif config.modem_backend == "hardware":
        from .hwmodem import HardwareBackedModem
        design.add(HardwareBackedModem(
            "NetIf", bus_protocol=config.bus_protocol(),
            air_protocol=config.air_protocol(), level=config.level,
            stub=config.modem_stub))
    else:
        raise SimulationError(
            f"unknown modem backend {config.modem_backend!r} "
            "(expected 'model' or 'hardware')")
    design.add(BaseStation("Server", air_protocol=config.air_protocol(),
                           wan_protocol=config.wan_protocol()))
    design.add(WebServer("Origin", content=page,
                         wan_protocol=config.wan_protocol(),
                         service_latency=config.origin_service_latency))

    design.connect("hwr_text", ("HWR", "text"), ("UI", "hwr"))
    design.connect("ui_next", ("UI", "next"), ("HWR", "next"))
    design.connect("ui_nav", ("UI", "navigate"), ("Browser", "ui_req"))
    design.connect("ui_render", ("Browser", "ui_done"), ("UI", "render"))
    design.connect("app_req", ("Browser", "fetch_req"), ("Stack", "app_rx"))
    design.connect("app_resp", ("Stack", "app_tx"), ("Browser", "fetch_resp"))
    design.connect("bus_fwd", ("Stack", "bus_tx"), ("NetIf", "bus_rx"))
    design.connect("bus_bwd", ("NetIf", "bus_tx"), ("Stack", "bus_rx"))
    design.connect("netirq", ("NetIf", "irq"), ("Stack", "irq"))
    design.connect("air_fwd", ("NetIf", "air_tx"), ("Server", "air_rx"))
    design.connect("air_bwd", ("Server", "air_tx"), ("NetIf", "air_rx"))
    design.connect("wan_fwd", ("Server", "wan_tx"), ("Origin", "wan_rx"))
    design.connect("wan_bwd", ("Origin", "wan_tx"), ("Server", "wan_rx"))
    return design, page


def build_local(config: Optional[WubbleUConfig] = None, *,
                batching: bool = False
                ) -> Tuple[CoSimulation, Deployment, PageContent]:
    """Everything in a single subsystem on a single node."""
    config = config or WubbleUConfig()
    design, page = build_design(config)
    cosim = CoSimulation(batching=batching)
    deployment = deploy(design, ASSIGN_LOCAL, cosim, placement=PLACEMENT)
    return cosim, deployment, page


def build_split(config: Optional[WubbleUConfig] = None, *,
                network: LatencyModel = INTERNET,
                mode: ChannelMode = ChannelMode.CONSERVATIVE,
                batching: bool = False
                ) -> Tuple[CoSimulation, Deployment, PageContent]:
    """Fig. 6's topology: the cellular chip remote, over ``network``."""
    config = config or WubbleUConfig()
    design, page = build_design(config)
    cosim = CoSimulation(snapshot_interval=(
        0.2 if mode is ChannelMode.OPTIMISTIC else None),
        batching=batching)
    deployment = deploy(design, ASSIGN_SPLIT, cosim, placement=PLACEMENT,
                        mode=mode)
    cosim.set_link_model("host-a", "host-b", network)
    return cosim, deployment, page


def wubbleu_design(config: WubbleUConfig) -> Design:
    """:func:`build_design` as a design factory (the design alone)."""
    return build_design(config)[0]


def wubbleu_spec(config: Optional[WubbleUConfig] = None, *,
                 network: LatencyModel = INTERNET) -> SystemSpec:
    """The placement of :func:`build_split` as a picklable spec, for
    ``build(spec, executor)`` under any executor; ``build_split`` returns
    the live ``Deployment`` instead, which cannot cross ``spawn``."""
    spec = spec_of("repro.apps.wubbleu:wubbleu_design",
                   config or WubbleUConfig(),
                   assignment=ASSIGN_SPLIT, placement=PLACEMENT)
    spec.set_link_model("host-a", "host-b", network)
    return spec


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

@dataclass
class PageLoadResult:
    """One Table 1 cell: a measured page load."""

    location: str                  # "local" | "remote"
    level: str                     # detail level of the bus link
    virtual_time: float            # when the page finished loading (sim s)
    cpu_seconds: float             # host CPU time spent simulating
    network_delay: float           # modelled wall time of inter-node traffic
    messages: int                  # inter-node messages
    wire_bytes: int                # inter-node bytes
    events: int                    # events dispatched
    bytes_loaded: int              # payload the browser received
    frames: int = 0                # wire frames (== messages unless batched)

    @property
    def simulation_time(self) -> float:
        """The paper's "simulation time": wall clock to finish the load.

        Communication with a remote node is serialised with the
        simulation, so the modelled network time adds to the measured CPU
        time (DESIGN.md, substitutions)."""
        return self.cpu_seconds + self.network_delay


def run_page_load(cosim: CoSimulation, *, location: str,
                  level: str) -> PageLoadResult:
    """Run a built system to completion and collect the measurements."""
    started = _time.perf_counter()
    cosim.run()
    cpu = _time.perf_counter() - started
    ui = cosim.component("UI")
    browser = cosim.component("Browser")
    if ui.page_loaded_at is None:
        raise SimulationError("the page never finished loading")
    accounting = cosim.transport.accounting
    events = sum(ss.scheduler.dispatched for ss in cosim.subsystems.values())
    return PageLoadResult(
        location=location,
        level=level,
        virtual_time=ui.page_loaded_at,
        cpu_seconds=cpu,
        network_delay=accounting.total_delay,
        messages=accounting.total_messages,
        wire_bytes=accounting.total_bytes,
        events=events,
        bytes_loaded=browser.bytes_received,
        frames=accounting.total_frames,
    )


def page_load(level: str, *, remote: bool,
              network: LatencyModel = INTERNET,
              mode: ChannelMode = ChannelMode.CONSERVATIVE,
              config: Optional[WubbleUConfig] = None,
              batching: bool = False) -> PageLoadResult:
    """One-call API: build, run and measure one Table 1 configuration."""
    config = config or WubbleUConfig()
    config.level = level
    if remote:
        cosim, __, ___ = build_split(config, network=network, mode=mode,
                                     batching=batching)
    else:
        cosim, __, ___ = build_local(config, batching=batching)
    return run_page_load(cosim, location="remote" if remote else "local",
                         level=level)
