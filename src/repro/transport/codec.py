"""Compact binary wire codec for Pia messages and batch frames.

Every frame the transports exchange used to be a full ``pickle.dumps``
of a :class:`~repro.transport.message.Message` (or
:class:`~repro.transport.message.BatchFrame`).  Pickle is general but
expensive both in CPU and in bytes: a SIGNAL frame carrying a couple of
short strings cost ~230 bytes of class metadata and memo machinery.
This module replaces it with a purpose-built binary format tuned for
the traffic Pia nodes actually exchange — small, highly regular
messages whose field values repeat heavily (node names, channel ids,
net names).

Frame layout::

    offset  size  field
    0       1     MAGIC (0xD1)   — never a valid pickle leading byte
    1       1     VERSION (2)    — mixed-version peers fail loudly
    2       1     frame type     — 0 = single message, 1 = batch frame
    3       ...   body

Message body::

    u8       kind code (enum definition order)
    u8       flags (1=channel, 2=request_id, 4=trace, 8=trace parent)
    strref   src
    strref   dst
    strref   channel            (iff flag 1)
    f64le    time
    uvarint  epoch
    uvarint  msg_id
    uvarint  request_id         (iff flag 2)
    uvarint  span ordinal       (iff flag 4; origin, epoch: src, epoch)
    uvarint  parent origin      (iff flag 8: length, UTF-8, not interned)
    uvarint  parent epoch       (iff flag 8)
    uvarint  parent ordinal     (iff flag 8)
    u8       payload tag, then the tag-specific payload body

Batch body::

    strref src, strref dst, uvarint epoch,
    uvarint n_messages, n message bodies,
    uvarint n_grants,   n message bodies

Strings are interned *per frame*: a ``strref`` is a uvarint that is
either ``(byte_length << 1) | 1`` followed by the UTF-8 bytes (first
occurrence — the string is appended to the frame's table) or
``(table_index << 1)`` (a back-reference).  A batch frame carrying 50
signals between the same pair of nodes therefore spells each name once.
The ISSUE sketched per-*connection* interning; frames are deliberately
self-contained instead, because the reliable-send path re-transmits an
already-encoded frame verbatim on a fresh connection after a failure —
any codec state shared across frames would desynchronise on exactly the
retry paths the fault plane exercises.

Typed payload tags cover the hot kinds (SIGNAL tuples, safe-time
counter pairs, safe-time request paths); everything else goes through a
compact tagged value encoding whose leaves fall back to pickle only for
objects the codec has no schema for (``FALLBACK`` tag / ``pickle``
value leaf) — so arbitrary user payloads still work, they just pay the
old price.
"""

from __future__ import annotations

import pickle
import struct
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import TransportError
from .message import BatchFrame, Message, MessageKind

#: First byte of every codec frame.  Pickle frames start with 0x80
#: (the PROTO opcode), so a pre-codec peer is detected immediately.
MAGIC = 0xD1
#: Bumped on any incompatible layout change; decoders reject mismatches.
VERSION = 2

FRAME_MESSAGE = 0
FRAME_BATCH = 1

# --- payload tags --------------------------------------------------------
PAYLOAD_NONE = 0      # payload is None
PAYLOAD_SIGNAL = 1    # (subsystem, net, value) — channel signal traffic
PAYLOAD_COUNTS = 2    # (injected, forwarded)  — safe-time reply/grant
PAYLOAD_PATH = 3      # (requester, target, path tuple) — safe-time request
PAYLOAD_VALUE = 4     # tagged value encoding (containers, scalars, ...)
PAYLOAD_FALLBACK = 5  # pickled blob — objects the codec has no schema for

# --- value tags (inside PAYLOAD_VALUE / container items) -----------------
_V_NONE = 0
_V_TRUE = 1
_V_FALSE = 2
_V_INT = 3      # zigzag uvarint
_V_FLOAT = 4    # f64le
_V_STR = 5      # strref
_V_BYTES = 6    # uvarint length + bytes
_V_TUPLE = 7    # uvarint count + items
_V_LIST = 8     # uvarint count + items
_V_DICT = 9     # uvarint count + key/value pairs
_V_MESSAGE = 10  # nested message body (fault/spill envelopes)
_V_PICKLE = 11  # uvarint length + pickle blob (fallback leaf)

_F64 = struct.Struct("<d")
_pack_f64 = _F64.pack
_unpack_f64 = _F64.unpack_from
_dumps = pickle.dumps
_PICKLE_PROTO = pickle.HIGHEST_PROTOCOL

#: Message kinds by definition order; the wire carries the index
#: (``MessageKind.code``, stamped where the enum is defined).
_KINDS: Tuple[MessageKind, ...] = tuple(MessageKind)

_SIGNAL = MessageKind.SIGNAL
_SAFE_TIME_REQUEST = MessageKind.SAFE_TIME_REQUEST
_SAFE_TIME_REPLY = MessageKind.SAFE_TIME_REPLY
_SAFE_TIME_GRANT = MessageKind.SAFE_TIME_GRANT


# ------------------------------------------------------------------------
# encoding
# ------------------------------------------------------------------------

def _put_uvarint_py(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint, capped at 64 bits.

    The cap is part of the wire contract: the decoder (both backends)
    rejects varints past 64 bits, so the encoder must never emit one —
    anything wider takes the pickle leaf instead.
    """
    if value < 0:
        raise TransportError(f"negative varint field: {value}")
    if value >> 64:
        raise TransportError(f"varint field exceeds 64 bits: {value}")
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _put_str_py(out: bytearray, s: str, strings: Dict[str, int]) -> None:
    """Interned string: back-reference or first-occurrence definition."""
    index = strings.get(s)
    if index is not None:
        _put_uvarint_py(out, index << 1)
        return
    data = s.encode("utf-8", "surrogatepass")
    _put_uvarint_py(out, (len(data) << 1) | 1)
    out += data
    strings[s] = len(strings)


def _put_value_py(out: bytearray, value: Any, strings: Dict[str, int]) -> None:
    t = type(value)
    if value is None:
        out.append(_V_NONE)
    elif t is bool:
        out.append(_V_TRUE if value else _V_FALSE)
    elif t is int and -(1 << 63) <= value < (1 << 63):
        out.append(_V_INT)
        # zigzag so small negatives stay small; ints beyond 64 bits take
        # the pickle leaf so the decoder can keep a strict varint cap
        _put_uvarint_py(out, (value << 1) if value >= 0
                        else ((-value) << 1) - 1)
    elif t is float:
        out.append(_V_FLOAT)
        out += _pack_f64(value)
    elif t is str:
        out.append(_V_STR)
        _put_str_py(out, value, strings)
    elif t is bytes:
        out.append(_V_BYTES)
        _put_uvarint_py(out, len(value))
        out += value
    elif t is tuple:
        out.append(_V_TUPLE)
        _put_uvarint_py(out, len(value))
        for item in value:
            _put_value_py(out, item, strings)
    elif t is list:
        out.append(_V_LIST)
        _put_uvarint_py(out, len(value))
        for item in value:
            _put_value_py(out, item, strings)
    elif t is dict:
        out.append(_V_DICT)
        _put_uvarint_py(out, len(value))
        for key, item in value.items():
            _put_value_py(out, key, strings)
            _put_value_py(out, item, strings)
    elif t is Message:
        out.append(_V_MESSAGE)
        _put_message(out, value, strings)
    else:
        # Subclasses of the above land here too: exact-type checks keep
        # round-trips type-faithful (a bool-valued IntEnum stays itself).
        out.append(_V_PICKLE)
        blob = _dumps(value, protocol=_PICKLE_PROTO)
        _put_uvarint_py(out, len(blob))
        out += blob


def _put_payload(out: bytearray, message: Message,
                 strings: Dict[str, int]) -> None:
    payload = message.payload
    if payload is None:
        out.append(PAYLOAD_NONE)
        return
    kind = message.kind
    if type(payload) is tuple:
        if (kind is _SIGNAL and len(payload) == 3
                and type(payload[0]) is str and type(payload[1]) is str):
            out.append(PAYLOAD_SIGNAL)
            _put_str(out, payload[0], strings)
            _put_str(out, payload[1], strings)
            _put_value(out, payload[2], strings)
            return
        if ((kind is _SAFE_TIME_REPLY or kind is _SAFE_TIME_GRANT)
                and len(payload) == 2
                and type(payload[0]) is int and type(payload[1]) is int
                and payload[0] >= 0 and payload[1] >= 0):
            out.append(PAYLOAD_COUNTS)
            _put_uvarint(out, payload[0])
            _put_uvarint(out, payload[1])
            return
        if (kind is _SAFE_TIME_REQUEST and len(payload) == 3
                and type(payload[0]) is str and type(payload[1]) is str
                and type(payload[2]) is tuple
                and all(type(hop) is str for hop in payload[2])):
            out.append(PAYLOAD_PATH)
            _put_str(out, payload[0], strings)
            _put_str(out, payload[1], strings)
            _put_uvarint(out, len(payload[2]))
            for hop in payload[2]:
                _put_str(out, hop, strings)
            return
    if type(payload) in (bool, int, float, str, bytes, tuple, list, dict):
        out.append(PAYLOAD_VALUE)
        _put_value(out, payload, strings)
        return
    out.append(PAYLOAD_FALLBACK)
    blob = _dumps(payload, protocol=_PICKLE_PROTO)
    _put_uvarint(out, len(blob))
    out += blob


def _put_message(out: bytearray, message: Message,
                 strings: Dict[str, int]) -> None:
    try:
        code = message.kind.code
    except AttributeError:
        raise TransportError(
            f"unknown message kind {message.kind!r}") from None
    channel = message.channel
    request_id = message.request_id
    trace = message.trace
    flags = 0
    if channel is not None:
        flags |= 1
    if request_id is not None:
        flags |= 2
    if trace is not None:
        flags |= 4
        if trace[1] is not None:
            flags |= 8
    out.append(code)
    out.append(flags)
    _put_str(out, message.src, strings)
    _put_str(out, message.dst, strings)
    if channel is not None:
        _put_str(out, channel, strings)
    out += _pack_f64(message.time)
    _put_uvarint(out, message.epoch)
    _put_uvarint(out, message.msg_id)
    if request_id is not None:
        _put_uvarint(out, request_id)
    if trace is not None:
        _put_uvarint(out, trace[0])
        parent = trace[1]
        if parent is not None:
            # Spelled, never interned: whether a name is already in the
            # frame would make a message's size depend on *which* peer
            # caused it, and at a merge point that is executor pacing.
            origin = parent[0].encode("utf-8", "surrogatepass")
            _put_uvarint(out, len(origin))
            out += origin
            _put_uvarint(out, parent[1])
            _put_uvarint(out, parent[2])
    _put_payload(out, message, strings)


def encode(message: Message) -> bytes:
    """Serialise one message into a self-contained codec frame."""
    out = bytearray((MAGIC, VERSION, FRAME_MESSAGE))
    try:
        _put_message(out, message, {})
    except TransportError:
        raise
    except Exception as exc:
        raise TransportError(f"cannot serialise {message.kind}: {exc}") from exc
    return bytes(out)


def encode_batch(frame: BatchFrame) -> bytes:
    """Serialise a whole batch frame with one shared string table."""
    out = bytearray((MAGIC, VERSION, FRAME_BATCH))
    strings: Dict[str, int] = {}
    try:
        _put_str(out, frame.src, strings)
        _put_str(out, frame.dst, strings)
        _put_uvarint(out, frame.epoch)
        _put_uvarint(out, len(frame.messages))
        for member in frame.messages:
            _put_message(out, member, strings)
        _put_uvarint(out, len(frame.grants))
        for grant in frame.grants:
            _put_message(out, grant, strings)
    except TransportError:
        raise
    except Exception as exc:
        raise TransportError(
            f"cannot serialise batch {frame.src}->{frame.dst}: {exc}"
        ) from exc
    return bytes(out)




# ------------------------------------------------------------------------
# decoding
# ------------------------------------------------------------------------

class _PyReader:
    """Cursor over one frame; every read is bounds-checked so a
    truncated or corrupt frame surfaces as :class:`TransportError`."""

    __slots__ = ("buf", "pos", "end", "strings")

    def __init__(self, blob: bytes, pos: int = 0) -> None:
        self.buf = blob
        self.pos = pos
        self.end = len(blob)
        self.strings: List[str] = []

    def fail(self, what: str) -> "TransportError":
        return TransportError(
            f"corrupt codec frame: {what} at offset {self.pos}")

    def u8(self) -> int:
        pos = self.pos
        if pos >= self.end:
            raise self.fail("truncated field (1 bytes wanted)")
        self.pos = pos + 1
        return self.buf[pos]

    def uvarint(self) -> int:
        buf, pos, end = self.buf, self.pos, self.end
        result = 0
        shift = 0
        while True:
            if pos >= end:
                raise self.fail("truncated varint")
            byte = buf[pos]
            pos += 1
            # Strict 64-bit cap (the native decoder works in uint64):
            # at shift 63 only the low payload bit may be set, and no
            # continuation may follow.
            if shift == 63 and byte & 0x7E:
                raise self.fail("varint overflow")
            result |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
            if shift > 63:
                raise self.fail("varint overflow")
        self.pos = pos
        return result

    def count(self) -> int:
        """A container/item count.  Every counted item occupies at least
        one byte, so a count exceeding the remaining bytes is corruption
        — rejecting it here keeps a corrupt varint from spinning the
        decoder through billions of phantom zero-byte items."""
        n = self.uvarint()
        if n > self.end - self.pos:
            raise self.fail(f"count {n} exceeds remaining frame")
        return n

    def take(self, n: int) -> bytes:
        pos = self.pos
        if pos + n > self.end:
            raise self.fail(f"truncated field ({n} bytes wanted)")
        self.pos = pos + n
        return self.buf[pos:pos + n]

    def f64(self) -> float:
        pos = self.pos
        if pos + 8 > self.end:
            raise self.fail("truncated float")
        self.pos = pos + 8
        return _unpack_f64(self.buf, pos)[0]

    def strref(self) -> str:
        ref = self.uvarint()
        if ref & 1:
            data = self.take(ref >> 1)
            try:
                s = data.decode("utf-8", "surrogatepass")
            except Exception:
                # Report where the string starts, as the C reader does.
                self.pos -= len(data)
                raise self.fail("undecodable string") from None
            self.strings.append(s)
            return s
        index = ref >> 1
        strings = self.strings
        if index >= len(strings):
            raise self.fail(f"string back-reference {index} out of range")
        return strings[index]

    def value(self) -> Any:
        tag = self.u8()
        if tag == _V_NONE:
            return None
        if tag == _V_TRUE:
            return True
        if tag == _V_FALSE:
            return False
        if tag == _V_INT:
            z = self.uvarint()
            return (z >> 1) ^ -(z & 1)
        if tag == _V_FLOAT:
            return self.f64()
        if tag == _V_STR:
            return self.strref()
        if tag == _V_BYTES:
            return self.take(self.uvarint())
        if tag == _V_TUPLE:
            return tuple(self.value() for _ in range(self.count()))
        if tag == _V_LIST:
            return [self.value() for _ in range(self.count())]
        if tag == _V_DICT:
            return {self.value(): self.value()
                    for _ in range(self.count())}
        if tag == _V_MESSAGE:
            return _read_message(self)
        if tag == _V_PICKLE:
            return self.pickled()
        raise self.fail(f"unknown value tag {tag}")

    def pickled(self) -> Any:
        blob = self.take(self.uvarint())
        try:
            return pickle.loads(blob)
        except Exception as exc:
            raise TransportError(
                f"cannot deserialise fallback payload: {exc}") from exc

    def done(self) -> None:
        if self.pos != self.end:
            raise TransportError(
                f"corrupt codec frame: {self.end - self.pos} trailing bytes")


# Message/payload/batch assembly lives at module level, shared verbatim
# by both reader backends: the native Reader implements only the
# primitives (u8/uvarint/count/take/f64/strref/value/pickled), and its
# ``value()`` re-enters :func:`_read_message` for nested messages via
# the ``codec_bind`` hook.

def _read_payload(r, kind: MessageKind) -> Any:
    tag = r.u8()
    if tag == PAYLOAD_NONE:
        return None
    if tag == PAYLOAD_SIGNAL:
        return (r.strref(), r.strref(), r.value())
    if tag == PAYLOAD_COUNTS:
        return (r.uvarint(), r.uvarint())
    if tag == PAYLOAD_PATH:
        requester = r.strref()
        target = r.strref()
        path = tuple(r.strref() for _ in range(r.count()))
        return (requester, target, path)
    if tag == PAYLOAD_VALUE:
        return r.value()
    if tag == PAYLOAD_FALLBACK:
        return r.pickled()
    raise r.fail(f"unknown payload tag {tag} for {kind.value}")


def _read_message(r) -> Message:
    code = r.u8()
    if code >= len(_KINDS):
        raise r.fail(f"unknown message kind code {code}")
    kind = _KINDS[code]
    flags = r.u8()
    src = r.strref()
    dst = r.strref()
    channel = r.strref() if flags & 1 else None
    time = r.f64()
    epoch = r.uvarint()
    msg_id = r.uvarint()
    request_id = r.uvarint() if flags & 2 else None
    trace: Optional[tuple] = None
    if flags & 4:
        ordinal = r.uvarint()
        parent = None
        if flags & 8:
            try:
                origin = str(r.take(r.count()), "utf-8", "surrogatepass")
            except UnicodeDecodeError:
                raise r.fail("undecodable parent origin") from None
            parent = (origin, r.uvarint(), r.uvarint())
        trace = (ordinal, parent)
    payload = _read_payload(r, kind)
    return Message(kind, src, dst, channel, time, payload,
                   request_id, msg_id, trace, epoch)


def _read_batch(r) -> BatchFrame:
    src = r.strref()
    dst = r.strref()
    epoch = r.uvarint()
    messages = [_read_message(r) for _ in range(r.count())]
    grants = [_read_message(r) for _ in range(r.count())]
    return BatchFrame(src, dst, messages, grants, epoch)


# ------------------------------------------------------------------------
# backend selection
# ------------------------------------------------------------------------
# The unsuffixed names below are what the encode/decode paths actually
# call; they bind to the C primitives when the native hot core is
# importable (and ``PIA_PURE`` is unset), and to the pure definitions
# otherwise.  The ``_py`` names always stay importable so the
# differential test suite can compare backends byte for byte.

from .. import _native  # noqa: E402

if _native.core is not None:
    _put_uvarint = _native.core.put_uvarint
    _put_str = _native.core.put_str
    _put_value = _native.core.put_value
    _Reader = _native.core.Reader
    _native.core.codec_bind(Message, _put_message, _read_message)
else:
    _put_uvarint = _put_uvarint_py
    _put_str = _put_str_py
    _put_value = _put_value_py
    _Reader = _PyReader


def _open(blob: bytes) -> "_Reader":
    if not blob:
        raise TransportError("cannot deserialise frame: empty")
    lead = blob[0]
    if lead != MAGIC:
        if lead == 0x80:
            raise TransportError(
                "refusing pickle wire frame: peer predates the binary "
                "codec (mixed-version run)")
        raise TransportError(
            f"cannot deserialise frame: unrecognised leading byte "
            f"{lead:#04x}")
    if len(blob) < 3:
        raise TransportError("cannot deserialise frame: truncated header")
    if blob[1] != VERSION:
        raise TransportError(
            f"codec version mismatch: frame is v{blob[1]}, this node "
            f"speaks v{VERSION} — upgrade all peers together")
    return _Reader(blob, 3)


def decode(blob: bytes) -> Message:
    """Decode a frame that must contain a single message."""
    reader = _open(blob)
    if blob[2] != FRAME_MESSAGE:
        raise TransportError(
            f"expected a message frame, got frame type {blob[2]}")
    message = _read_message(reader)
    reader.done()
    return message


def decode_any(blob: bytes):
    """Decode a wire frame: a single :class:`Message` or a
    :class:`BatchFrame`."""
    reader = _open(blob)
    frame_type = blob[2]
    if frame_type == FRAME_MESSAGE:
        decoded: Any = _read_message(reader)
    elif frame_type == FRAME_BATCH:
        decoded = _read_batch(reader)
    else:
        raise TransportError(f"unknown frame type {frame_type}")
    reader.done()
    return decoded
