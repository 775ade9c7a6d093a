"""The WubbleU modules (paper section 4, Fig. 5).

"WubbleU is essentially a hand held Web Browser ... that consists of a
hand held unit and a wireless connection to a dedicated server."  The
communication flow graph of Fig. 5 maps to these components:

``HandwritingRecognizer``
    The input-method IP block: turns pen strokes into a URL.
``UserInterface``
    Accepts the recognised URL, asks the browser to navigate, and records
    when the rendered page comes back — the page-load latency of Table 1.
``Browser``
    The HTML engine: fetches the page, tokenises it, fetches and decodes
    every image (real JPEG-flavoured decode work), lays the page out.
``ProtocolStack``
    Frames requests/responses and moves them over the system bus to the
    network interface.  Its ``bus`` interface is the one whose detail
    level Table 1 sweeps (word passage vs packet passage).
``BaseStation``
    The dedicated server at the far end of the cellular link; it proxies
    requests to the origin web server over a WAN link.

The cellular modem ASIC lives in :mod:`repro.apps.cellular` and the origin
server in :mod:`repro.apps.webserver`.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from ..core.component import ProcessComponent
from ..core.errors import SimulationError
from ..core.interface import Interface
from ..core.port import PortDirection
from ..core.process import (
    Advance,
    Command,
    Receive,
    ReceiveTransfer,
    Send,
    Transfer,
    TryReceive,
)
from ..processor.timing import ARM7, BasicBlockTimer, ProcessorProfile
from ..protocols.base import Protocol
from . import html, jpeg

# ---------------------------------------------------------------------------
# the HTTP-like application protocol
# ---------------------------------------------------------------------------

_REQUEST_PREFIX = b"GET "
_REQUEST_SUFFIX = b" PIA/1.0\r\n\r\n"
_RESPONSE_PREFIX = b"PIA/1.0 200\r\nLength: "
_RESPONSE_SEP = b"\r\n\r\n"


def encode_request(path: str) -> bytes:
    return _REQUEST_PREFIX + path.encode() + _REQUEST_SUFFIX


def parse_request(data: bytes) -> str:
    if not data.startswith(_REQUEST_PREFIX) or \
            not data.endswith(_REQUEST_SUFFIX):
        raise SimulationError(f"malformed request: {data[:40]!r}")
    return data[len(_REQUEST_PREFIX):-len(_REQUEST_SUFFIX)].decode()


def encode_response(body: bytes) -> bytes:
    return _RESPONSE_PREFIX + str(len(body)).encode() + _RESPONSE_SEP + body


def parse_response(data: bytes) -> bytes:
    if not data.startswith(_RESPONSE_PREFIX):
        raise SimulationError(f"malformed response: {data[:40]!r}")
    cut = data.index(_RESPONSE_SEP)
    length = int(data[len(_RESPONSE_PREFIX):cut])
    body = data[cut + len(_RESPONSE_SEP):]
    if len(body) != length:
        raise SimulationError(
            f"response length mismatch: header says {length}, "
            f"body is {len(body)}")
    return body


# ---------------------------------------------------------------------------
# components
# ---------------------------------------------------------------------------

class HandwritingRecognizer(ProcessComponent):
    """Pen strokes in, a URL out — one of the paper's example IP blocks.

    With ``repeats`` > 1 the user writes the URL again after each page
    renders (the UI pulses ``next`` back), modelling a browsing session of
    several page loads.
    """

    def __init__(self, name: str = "HWR", *, url: str = "/index.html",
                 strokes: int = 12, repeats: int = 1,
                 profile: ProcessorProfile = ARM7) -> None:
        super().__init__(name)
        self.url = url
        self.strokes = strokes
        self.repeats = repeats
        self.timer = BasicBlockTimer(profile)
        self.add_port("text", PortDirection.OUT)
        self.add_port("next", PortDirection.IN)

    def run(self) -> Iterator[Command]:
        for round_index in range(self.repeats):
            if round_index:
                yield Receive("next")      # wait for the previous render
            # Per-stroke feature extraction plus a classifier pass.
            for __ in range(self.strokes):
                yield self.timer.block(alu=2200, load=300, mul=64,
                                       branch=180)
            yield self.timer.block(alu=9000, mul=1200, load=900, branch=700)
            yield Send("text", self.url)


class UserInterface(ProcessComponent):
    """Issues navigations and records each page-load completion."""

    def __init__(self, name: str = "UI", *, page_loads: int = 1,
                 profile: ProcessorProfile = ARM7) -> None:
        super().__init__(name)
        self.page_loads = page_loads
        self.timer = BasicBlockTimer(profile)
        self.page_loaded_at: Optional[float] = None
        self.summary: Optional[dict] = None
        #: (completion time, summary) of every load in the session.
        self.history: list = []
        self.add_port("hwr", PortDirection.IN)
        self.add_port("navigate", PortDirection.OUT)
        self.add_port("render", PortDirection.IN)
        self.add_port("next", PortDirection.OUT)

    def run(self) -> Iterator[Command]:
        for round_index in range(self.page_loads):
            __, url = yield Receive("hwr")
            yield self.timer.block(alu=600, load=120, store=80)
            yield Send("navigate", url)
            finished_at, summary = yield Receive("render")
            self.page_loaded_at = finished_at
            self.summary = summary
            self.history.append((finished_at, summary))
            if round_index + 1 < self.page_loads:
                yield self.timer.block(alu=1500, store=200)   # user reads
                yield Send("next", round_index + 1)


class Browser(ProcessComponent):
    """The HTML engine of the handheld unit."""

    #: Per-8x8-block decode cost (two 8x8 matrix products and friends).
    DECODE_BLOCK_OPS = {"mul": 1024, "alu": 1100, "load": 160, "store": 80}

    def __init__(self, name: str = "Browser", *,
                 profile: ProcessorProfile = ARM7) -> None:
        super().__init__(name)
        self.timer = BasicBlockTimer(profile)
        self.pages_loaded = 0
        self.bytes_received = 0
        self.decoded_blocks = 0
        self.add_port("ui_req", PortDirection.IN)
        self.add_port("ui_done", PortDirection.OUT)
        self.add_port("fetch_req", PortDirection.OUT)
        self.add_port("fetch_resp", PortDirection.IN)

    def _fetch(self, path: str) -> Iterator[Command]:
        yield self.timer.block(alu=400, store=60)
        yield Send("fetch_req", path)
        __, body = yield Receive("fetch_resp")
        self.bytes_received += len(body)
        return body

    def run(self) -> Iterator[Command]:
        while True:
            __, url = yield Receive("ui_req")
            page = yield from self._fetch(url)
            yield self.timer.block(**html.parse_cost(page))
            document = html.parse(page)
            images_decoded = 0
            for image_path in document.images:
                blob = yield from self._fetch(image_path)
                header = jpeg.info(blob)
                self.decoded_blocks += header.blocks
                yield self.timer.block(**{
                    op: count * header.blocks
                    for op, count in self.DECODE_BLOCK_OPS.items()})
                # Really decode (real CPU work, like HotJava did).
                jpeg.decode(blob)
                images_decoded += 1
            yield self.timer.block(**document.layout_cost())
            self.pages_loaded += 1
            yield Send("ui_done", {
                "url": url,
                "title": document.title,
                "images": images_decoded,
                "bytes": self.bytes_received,
            })


class ProtocolStack(ProcessComponent):
    """Request/response framing over the system bus to the modem.

    ``bus_protocol`` must offer the detail levels the experiment sweeps
    (``word``/``packet``/``transaction``); the interface starts at
    ``level``.
    """

    def __init__(self, name: str = "Stack", *, bus_protocol: Protocol,
                 level: Optional[str] = None,
                 profile: ProcessorProfile = ARM7) -> None:
        super().__init__(name)
        self.timer = BasicBlockTimer(profile)
        self.requests_handled = 0
        self.irq_count = 0
        self.add_port("app_rx", PortDirection.IN)
        self.add_port("app_tx", PortDirection.OUT)
        self.add_port("irq", PortDirection.IN)
        self.add_interface(Interface("bus", bus_protocol, level=level,
                                     out_port="bus_tx", in_port="bus_rx"))

    def run(self) -> Iterator[Command]:
        while True:
            __, path = yield Receive("app_rx")
            yield self.timer.block(alu=900, load=140, store=180)
            yield Transfer("bus", encode_request(path))
            __, raw = yield ReceiveTransfer("bus")
            body = parse_response(raw)
            # copy out of the DMA buffer
            yield self.timer.block(alu=len(body) // 2, load=len(body) // 4,
                                   store=len(body) // 4)
            while True:
                irq = yield TryReceive("irq")
                if irq is None:
                    break
                self.irq_count += 1
            self.requests_handled += 1
            yield Send("app_tx", body)


class BaseStation(ProcessComponent):
    """The dedicated server on the far side of the wireless link."""

    def __init__(self, name: str = "Server", *, air_protocol: Protocol,
                 wan_protocol: Protocol,
                 profile: ProcessorProfile = ARM7) -> None:
        super().__init__(name)
        self.timer = BasicBlockTimer(profile)
        self.requests_proxied = 0
        self.add_interface(Interface("air", air_protocol,
                                     out_port="air_tx", in_port="air_rx"))
        self.add_interface(Interface("wan", wan_protocol,
                                     out_port="wan_tx", in_port="wan_rx"))

    def run(self) -> Iterator[Command]:
        while True:
            __, request = yield ReceiveTransfer("air")
            parse_request(request)      # validates framing
            yield self.timer.block(alu=2500, load=400, store=300)
            yield Transfer("wan", request)
            __, response = yield ReceiveTransfer("wan")
            yield self.timer.block(alu=len(response) // 8)
            self.requests_proxied += 1
            yield Transfer("air", response)
