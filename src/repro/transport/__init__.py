"""Inter-node transports: the reproduction's substitute for Java RMI."""

from .. import _attach

__getattr__, __dir__, __all__ = _attach(__name__, {
    **dict.fromkeys(("LinkStats", "NetworkAccounting"), ".accounting"),
    "SendBatcher": ".batch",
    "InMemoryTransport": ".inmemory",
    **dict.fromkeys(("BROADBAND", "INTERNET", "LAN", "SAME_HOST",
                     "LatencyModel"),
                    ".latency"),
    **dict.fromkeys(("decode", "decode_any", "encode", "encode_batch"),
                    ".codec"),
    **dict.fromkeys(("BatchFrame", "Message", "MessageKind"), ".message"),
    "Transport": ".pipeline",
    "TcpTransport": ".tcp",
})
