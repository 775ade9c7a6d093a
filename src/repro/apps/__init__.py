"""The WubbleU handheld web-browser benchmark (paper section 4)."""

from .cellular import ASIC_PROFILE, CellularModem
from .content import DEFAULT_TOTAL_BYTES, PageContent, build_page
from .hotjava import ReferenceResult, fetch_like_hotjava
from .hwmodem import HardwareBackedModem, ModemChip
from .modules import (
    BaseStation,
    Browser,
    HandwritingRecognizer,
    ProtocolStack,
    UserInterface,
    encode_request,
    encode_response,
    parse_request,
    parse_response,
)
from .webserver import WebServer
from .wubbleu import (
    ASSIGN_LOCAL,
    ASSIGN_SPLIT,
    CELLSITE,
    HANDHELD,
    PageLoadResult,
    WubbleUConfig,
    build_design,
    build_local,
    build_split,
    page_load,
    run_page_load,
    wubbleu_spec,
)

__all__ = [
    "ASIC_PROFILE", "ASSIGN_LOCAL", "ASSIGN_SPLIT", "BaseStation",
    "Browser", "CELLSITE", "CellularModem", "DEFAULT_TOTAL_BYTES",
    "HardwareBackedModem", "ModemChip",
    "HANDHELD", "HandwritingRecognizer", "PageContent", "PageLoadResult",
    "ProtocolStack", "ReferenceResult", "UserInterface", "WebServer",
    "WubbleUConfig", "build_design", "build_local", "build_page",
    "build_split", "encode_request", "encode_response",
    "fetch_like_hotjava", "page_load", "parse_request", "parse_response",
    "run_page_load", "wubbleu_spec",
]
