"""The WubbleU handheld web-browser benchmark (paper section 4)."""

from .. import _attach

__getattr__, __dir__, __all__ = _attach(__name__, {
    **dict.fromkeys(("ASIC_PROFILE", "CellularModem"), ".cellular"),
    **dict.fromkeys(("DEFAULT_TOTAL_BYTES", "PageContent", "build_page"),
                    ".content"),
    **dict.fromkeys(("ReferenceResult", "fetch_like_hotjava"), ".hotjava"),
    **dict.fromkeys(("HardwareBackedModem", "ModemChip"), ".hwmodem"),
    **dict.fromkeys(("BaseStation", "Browser", "HandwritingRecognizer",
                     "ProtocolStack", "UserInterface", "encode_request",
                     "encode_response", "parse_request", "parse_response"),
                    ".modules"),
    "WebServer": ".webserver",
    **dict.fromkeys(("ASSIGN_LOCAL", "ASSIGN_SPLIT", "CELLSITE", "HANDHELD",
                     "PageLoadResult", "WubbleUConfig", "build_design",
                     "build_local", "build_split", "page_load",
                     "run_page_load", "wubbleu_spec"),
                    ".wubbleu"),
})
