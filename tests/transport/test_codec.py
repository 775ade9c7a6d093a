"""Binary wire codec: round-trips and hostile input.

Two layers of assurance (the cross-carrier one — the same traffic decodes
identically off all three data planes — lives in ``test_pipeline.py``):

* every :class:`MessageKind` and every payload shape the protocol
  actually sends round-trips bit-faithfully (including the pickle
  fallback for payloads the codec has no schema for),
* hostile bytes — truncations, random corruption, stale pickle frames,
  future codec versions, absurd container counts — always surface as
  :class:`TransportError`, never as a hang or a foreign exception.
"""

import math
import pickle
import random
import time as _time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TransportError
from repro.transport import codec
from repro.transport.codec import (
    MAGIC,
    VERSION,
    decode,
    decode_any,
    encode,
    encode_batch,
)
from repro.transport.message import BatchFrame, Message, MessageKind


def _msg(kind=MessageKind.SIGNAL, src="alpha", dst="beta", channel="bus",
         time=1.25, payload=("sub", "net", 1), **kwargs):
    return Message(kind=kind, src=src, dst=dst, channel=channel, time=time,
                   payload=payload, **kwargs)


#: One representative message per kind, shaped like real protocol
#: traffic (the hot kinds exercise their dedicated payload schemas).
KIND_EXAMPLES = {
    MessageKind.SIGNAL: _msg(payload=("engine", "clk", True)),
    MessageKind.SAFE_TIME_REQUEST: _msg(
        kind=MessageKind.SAFE_TIME_REQUEST, channel=None, request_id=42,
        payload=("alpha", "gamma", ("alpha", "beta", "gamma"))),
    MessageKind.SAFE_TIME_REPLY: _msg(
        kind=MessageKind.SAFE_TIME_REPLY, channel=None, request_id=42,
        payload=(3, 7)),
    MessageKind.SAFE_TIME_GRANT: _msg(
        kind=MessageKind.SAFE_TIME_GRANT, channel=None, payload=(0, 0)),
    MessageKind.MARK: _msg(
        kind=MessageKind.MARK, channel=None,
        payload={"snapshot": "s1", "cut": 4.0}),
    MessageKind.RESTORE: _msg(
        kind=MessageKind.RESTORE, channel=None, payload="s1"),
    MessageKind.HW_CALL: _msg(
        kind=MessageKind.HW_CALL, request_id=9,
        payload=("probe", (1, 2, 3))),
    MessageKind.HW_REPLY: _msg(
        kind=MessageKind.HW_REPLY, request_id=9, payload=b"\x00\xff"),
    MessageKind.CONTROL: _msg(
        kind=MessageKind.CONTROL, channel=None,
        payload=("pause", {"until": 2.5})),
}


class TestRoundTrip:
    @pytest.mark.parametrize("kind", list(MessageKind),
                             ids=lambda k: k.value)
    def test_every_kind_round_trips_exactly(self, kind):
        message = KIND_EXAMPLES[kind]
        again = decode(encode(message))
        assert again == message
        assert type(again.payload) is type(message.payload)

    def test_full_header_round_trips(self):
        message = _msg(time=123.456, epoch=3, msg_id=9001, request_id=77,
                       trace=(2, ("alpha:1", 3, 1)))
        again = decode(encode(message))
        assert again == message
        assert again.trace == (2, ("alpha:1", 3, 1))

    def test_chain_root_trace_has_no_parent(self):
        message = _msg(trace=(1, None))
        assert decode(encode(message)).trace == (1, None)

    def test_trace_costs_its_ordinals_and_the_spelled_parent_origin(self):
        plain = len(encode(_msg()))
        assert len(encode(_msg(trace=(5, None)))) == plain + 1
        # The parent's origin is spelled even when the frame already
        # holds the name (here the destination), so a message costs the
        # same whichever peer caused it.
        assert len(encode(_msg(trace=(5, ("beta", 0, 9))))) \
            == len(encode(_msg(trace=(5, ("gamm", 0, 9))))) \
            == plain + 1 + 1 + 4 + 1 + 1

    def test_empty_strings_and_empty_containers(self):
        message = Message(MessageKind.CONTROL, src="", dst="", channel="",
                          payload=("", (), [], {}, b""))
        assert decode(encode(message)) == message

    def test_non_ascii_and_surrogates(self):
        message = _msg(src="nœud-α", dst="ノード", channel="канал",
                       payload=("süb", "nét", "payload-𐏿"))
        again = decode(encode(message))
        assert again == message

    def test_huge_payload(self):
        message = _msg(payload=("s", "n", b"\xaa" * 300_000))
        blob = encode(message)
        assert len(blob) > 300_000
        assert decode(blob) == message

    def test_float_specials(self):
        for value in (0.0, -0.0, math.inf, -math.inf, 1e-300, 1e300):
            again = decode(encode(_msg(payload=("s", "n", value))))
            assert again.payload[2] == value
            assert math.copysign(1, again.payload[2]) == math.copysign(1, value)
        nan = decode(encode(_msg(payload=("s", "n", math.nan))))
        assert math.isnan(nan.payload[2])

    def test_out_of_range_ints_take_the_pickle_leaf(self):
        for value in (1 << 70, -(1 << 70), (1 << 63), -(1 << 63) - 1):
            assert decode(encode(_msg(payload=("s", "n", value)))).payload[2] \
                == value

    def test_boundary_ints_stay_varint(self):
        for value in ((1 << 63) - 1, -(1 << 63), 0, -1, 1):
            assert decode(encode(_msg(payload=("s", "n", value)))).payload[2] \
                == value

    def test_pickle_fallback_payloads(self):
        for payload in (complex(1, 2), {3, 4}, frozenset({"x"}),
                        bytearray(b"mut")):
            again = decode(encode(_msg(kind=MessageKind.CONTROL,
                                       channel=None, payload=payload)))
            assert again.payload == payload
            assert type(again.payload) is type(payload)

    def test_bool_int_fidelity_survives_the_wire(self):
        # bools are not flattened to ints and vice versa — consumers
        # branch on exact types after _through_wire deep copies.
        again = decode(encode(_msg(payload=("s", "n", (True, 1, 0, False)))))
        assert [type(v) for v in again.payload[2]] == [bool, int, int, bool]

    def test_nested_message_payload(self):
        inner = _msg(payload=("s", "n", 5), msg_id=3)
        outer = _msg(kind=MessageKind.CONTROL, channel=None,
                     payload=("spill", 2, inner))
        again = decode(encode(outer))
        assert again.payload[2] == inner

    @settings(max_examples=200, deadline=None)
    @given(payload=st.recursive(
        st.none() | st.booleans()
        | st.integers(min_value=-(1 << 80), max_value=1 << 80)
        | st.floats(allow_nan=False) | st.text() | st.binary(),
        lambda children: (
            st.lists(children, max_size=4)
            | st.lists(children, max_size=4).map(tuple)
            | st.dictionaries(st.text(max_size=8), children, max_size=4)),
        max_leaves=25))
    def test_property_payload_round_trip(self, payload):
        message = _msg(kind=MessageKind.CONTROL, channel=None,
                       payload=payload)
        assert decode(encode(message)) == message

    @settings(max_examples=100, deadline=None)
    @given(src=st.text(min_size=1), dst=st.text(min_size=1),
           time=st.floats(allow_nan=False), epoch=st.integers(0, 1 << 40),
           msg_id=st.integers(0, 1 << 40))
    def test_property_header_round_trip(self, src, dst, time, epoch, msg_id):
        message = Message(MessageKind.SIGNAL, src, dst, channel=None,
                          time=time, payload=None, epoch=epoch,
                          msg_id=msg_id)
        assert decode(encode(message)) == message


class TestBatchFrames:
    def test_batch_round_trips(self):
        messages = [_msg(time=float(i), payload=("sub", "net", i))
                    for i in range(10)]
        grants = [KIND_EXAMPLES[MessageKind.SAFE_TIME_GRANT]]
        frame = BatchFrame(src="alpha", dst="beta", messages=messages,
                           grants=grants, epoch=2)
        again = decode_any(encode_batch(frame))
        assert isinstance(again, BatchFrame)
        assert again.messages == messages
        assert again.grants == grants
        assert (again.src, again.dst, again.epoch) == ("alpha", "beta", 2)

    def test_empty_batch(self):
        frame = BatchFrame(src="a", dst="b", messages=[], grants=[])
        again = decode_any(encode_batch(frame))
        assert again.messages == [] and again.grants == []

    def test_interning_amortises_repeated_names(self):
        """A 50-signal batch between one pair of nodes spells each name
        once: the whole frame costs far less than 50 single frames, and
        far less than the pickle encoding it replaced."""
        messages = [_msg(time=float(i), payload=("subsystem", "net", i))
                    for i in range(50)]
        frame = BatchFrame(src="alpha", dst="beta", messages=messages,
                           grants=[])
        batched = len(encode_batch(frame))
        singles = sum(len(encode(m)) for m in messages)
        pickled = len(pickle.dumps(frame, pickle.HIGHEST_PROTOCOL))
        assert batched < 0.5 * singles
        assert batched < pickled / 3
        assert decode_any(encode_batch(frame)).messages == messages

    def test_decode_rejects_batch_where_message_expected(self):
        frame = BatchFrame(src="a", dst="b", messages=[], grants=[])
        with pytest.raises(TransportError, match="message frame"):
            decode(encode_batch(frame))


class TestWireEconomy:
    def test_signal_frame_beats_pickle_3x(self):
        message = _msg(payload=("engine", "clk", 1), msg_id=12, epoch=1)
        assert len(pickle.dumps(message, pickle.HIGHEST_PROTOCOL)) \
            >= 3 * len(encode(message))

    def test_safe_time_frames_beat_pickle_3x(self):
        for kind in (MessageKind.SAFE_TIME_REQUEST,
                     MessageKind.SAFE_TIME_REPLY,
                     MessageKind.SAFE_TIME_GRANT):
            message = KIND_EXAMPLES[kind]
            assert len(pickle.dumps(message, pickle.HIGHEST_PROTOCOL)) \
                >= 3 * len(encode(message))

class TestHostileInput:
    def _rich_frame(self):
        return encode(_msg(
            time=9.5, epoch=2, msg_id=17, request_id=5,
            trace=(2, ("alpha:1", 3, 1)),
            payload=("sub", "net", ("x", [1, 2.5], {"k": b"v"}))))

    def test_every_truncation_raises_transport_error(self):
        blob = self._rich_frame()
        for cut in range(len(blob)):
            with pytest.raises(TransportError):
                decode_any(blob[:cut])

    def test_trailing_garbage_raises(self):
        with pytest.raises(TransportError, match="trailing"):
            decode_any(self._rich_frame() + b"\x00")

    def test_pickle_frames_from_older_peers_fail_loudly(self):
        stale = pickle.dumps(_msg(), pickle.HIGHEST_PROTOCOL)
        with pytest.raises(TransportError, match="pickle"):
            decode_any(stale)

    def test_future_codec_version_fails_loudly(self):
        blob = bytearray(self._rich_frame())
        blob[1] = VERSION + 1
        with pytest.raises(TransportError, match="version"):
            decode_any(bytes(blob))

    def test_unknown_frame_type_and_kind_code(self):
        blob = bytearray(self._rich_frame())
        blob[2] = 99
        with pytest.raises(TransportError, match="frame type"):
            decode_any(bytes(blob))
        blob = bytearray(self._rich_frame())
        blob[3] = 250                       # kind code past the enum
        with pytest.raises(TransportError, match="kind code"):
            decode_any(bytes(blob))

    def test_absurd_container_count_rejected_quickly(self):
        """A corrupt count claiming 2**40 zero-byte items must be an
        error, not a decoder spin."""
        out = bytearray((MAGIC, VERSION, codec.FRAME_MESSAGE))
        out.append(MessageKind.SIGNAL.code)
        out.append(0)                                     # flags
        codec._put_str(out, "a", {})
        codec._put_str(out, "b", {"a": 0})
        out += codec._pack_f64(1.0)
        codec._put_uvarint(out, 0)                        # epoch
        codec._put_uvarint(out, 0)                        # msg_id
        out.append(codec.PAYLOAD_VALUE)
        out.append(codec._V_TUPLE)
        codec._put_uvarint(out, 1 << 40)                  # corrupt count
        start = _time.monotonic()
        with pytest.raises(TransportError, match="count"):
            decode_any(bytes(out))
        assert _time.monotonic() - start < 1.0

    def test_string_backreference_out_of_range(self):
        out = bytearray((MAGIC, VERSION, codec.FRAME_MESSAGE))
        out.append(MessageKind.SIGNAL.code)
        out.append(0)
        codec._put_uvarint(out, 8 << 1)     # back-ref into an empty table
        with pytest.raises(TransportError, match="back-reference"):
            decode_any(bytes(out))

    def test_varint_overflow_rejected(self):
        out = bytearray((MAGIC, VERSION, codec.FRAME_MESSAGE))
        out += b"\xff" * 12                 # continuation bits past 64 bits
        with pytest.raises(TransportError, match="overflow|kind code"):
            decode_any(bytes(out))

    def test_empty_frame(self):
        with pytest.raises(TransportError, match="empty"):
            decode_any(b"")

    def test_random_corruption_never_escapes_transport_error(self):
        """Flip bytes all over valid frames: the decoder either raises
        TransportError or yields a structurally valid frame — never a
        foreign exception, never a hang."""
        rng = random.Random(0xC0DEC)
        frames = [self._rich_frame(),
                  encode_batch(BatchFrame(
                      src="alpha", dst="beta",
                      messages=[_msg(time=float(i),
                                     payload=("sub", "net", i))
                                for i in range(5)],
                      grants=[KIND_EXAMPLES[MessageKind.SAFE_TIME_GRANT]]))]
        for blob in frames:
            for _ in range(400):
                mutated = bytearray(blob)
                for _ in range(rng.randint(1, 4)):
                    mutated[rng.randrange(len(mutated))] = rng.randrange(256)
                try:
                    decoded = decode_any(bytes(mutated))
                except TransportError:
                    continue
                assert isinstance(decoded, (Message, BatchFrame))
