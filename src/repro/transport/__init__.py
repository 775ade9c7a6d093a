"""Inter-node transports: the reproduction's substitute for Java RMI."""

from .accounting import LinkStats, NetworkAccounting
from .batch import SendBatcher
from .inmemory import InMemoryTransport
from .latency import (
    BROADBAND,
    INTERNET,
    LAN,
    PRESETS,
    SAME_HOST,
    LatencyModel,
    preset,
)
from .message import (
    BatchFrame,
    Message,
    MessageKind,
    decode,
    decode_any,
    encode,
    encode_batch,
    wire_size,
)
from .pipeline import Transport
from .tcp import TcpTransport

__all__ = [
    "BROADBAND", "BatchFrame", "INTERNET", "InMemoryTransport", "LAN",
    "LatencyModel", "LinkStats", "Message", "MessageKind",
    "NetworkAccounting", "PRESETS", "SAME_HOST", "SendBatcher",
    "TcpTransport", "Transport", "decode", "decode_any", "encode",
    "encode_batch", "preset", "wire_size",
]
