"""Differential tests: native codec primitives against the pure ones.

The C encoders (``put_uvarint``/``put_str``/``put_value``) must produce
*byte-identical* output to ``_put_uvarint_py``/``_put_str_py``/
``_put_value_py`` for every value, and the C ``Reader`` must accept
exactly the blobs ``_PyReader`` accepts — same decoded values, same
cursor positions, same :class:`TransportError` messages on corruption.
Byte identity is the property that makes the native build invisible on
the wire: a compiled node and a pure-python node exchange frames
without either noticing the other's backend.

Runs regardless of which backend the package itself bound (the
extension is imported directly), so both CI legs exercise it; skips
cleanly when the extension was never built.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

_core = pytest.importorskip(
    "repro._native._core",
    reason="native hot core not built "
           "(python setup.py build_ext --inplace)")

from repro.core.errors import TransportError
from repro.transport import codec
from repro.transport.message import Message, MessageKind

# The nested-message hooks are bound by codec.py only when the native
# backend is live there; bind them here too so V_MESSAGE payloads work
# under PIA_PURE=1 as well.  Re-binding with the same hooks is harmless.
_core.codec_bind(Message, codec._put_message, codec._read_message)


def _native_bytes(put, *args):
    out = bytearray()
    put(out, *args)
    return bytes(out)


def _pure_bytes(put, *args):
    out = bytearray()
    put(out, *args)
    return bytes(out)


_U64 = st.integers(min_value=0, max_value=2**64 - 1)

#: Scalars the tagged value codec handles natively, plus unbounded ints
#: so the pickle-fallback path for >64-bit magnitudes is exercised too.
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.floats(allow_nan=False), st.text(max_size=24),
    st.binary(max_size=24))

_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), children, max_size=4)),
    max_leaves=24)


class TestUvarintParity:
    @given(_U64)
    @settings(max_examples=300, deadline=None)
    def test_encode_bytes_identical_and_cross_decode(self, value):
        native = _native_bytes(_core.put_uvarint, value)
        pure = _pure_bytes(codec._put_uvarint_py, value)
        assert native == pure
        for reader_cls in (_core.Reader, codec._PyReader):
            reader = reader_cls(native)
            assert reader.uvarint() == value
            assert reader.pos == len(native)

    def test_boundaries_stay_varint(self):
        for value in (0, 1, 127, 128, 2**63 - 1, 2**64 - 1):
            assert _native_bytes(_core.put_uvarint, value) == \
                _pure_bytes(codec._put_uvarint_py, value)

    @given(st.one_of(st.integers(max_value=-1),
                     st.integers(min_value=2**64)))
    @settings(max_examples=100, deadline=None)
    def test_out_of_range_rejected_identically(self, value):
        with pytest.raises(TransportError) as native_err:
            _core.put_uvarint(bytearray(), value)
        with pytest.raises(TransportError) as pure_err:
            codec._put_uvarint_py(bytearray(), value)
        assert str(native_err.value) == str(pure_err.value)

    @pytest.mark.parametrize("blob", [
        b"\x80",                      # continuation bit, then nothing
        b"\xff" * 10,                 # never terminates inside 64 bits
        b"\xff" * 9 + b"\x7f",        # terminates, but bits 64+ set
        b"\x80" * 9 + b"\x02",        # value 2**63 is fine...
        b"\x80" * 9 + b"\x7e",        # ...but the rest of that byte isn't
    ])
    def test_decoder_rejections_match(self, blob):
        results = []
        for reader_cls in (_core.Reader, codec._PyReader):
            reader = reader_cls(blob)
            try:
                results.append(("ok", reader.uvarint(), reader.pos))
            except TransportError as exc:
                results.append(("err", str(exc)))
        assert results[0] == results[1]


class TestStrInternParity:
    @given(st.lists(st.text(max_size=12), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_intern_table_bytes_identical(self, texts):
        """Repeats become back-references at identical indices."""
        native_out, pure_out = bytearray(), bytearray()
        native_tab, pure_tab = {}, {}
        for s in texts:
            _core.put_str(native_out, s, native_tab)
            codec._put_str_py(pure_out, s, pure_tab)
        assert bytes(native_out) == bytes(pure_out)
        assert native_tab == pure_tab
        for reader_cls in (_core.Reader, codec._PyReader):
            reader = reader_cls(bytes(native_out))
            assert [reader.strref() for _ in texts] == texts
            reader.done()


class TestValueCodecParity:
    @given(_VALUES)
    @settings(max_examples=300, deadline=None)
    def test_encode_bytes_identical_and_all_decodes_agree(self, value):
        native = _native_bytes(_core.put_value, value, {})
        pure = _pure_bytes(codec._put_value_py, value, {})
        assert native == pure
        decoded = []
        for reader_cls in (_core.Reader, codec._PyReader):
            reader = reader_cls(native)
            result = reader.value()
            reader.done()
            decoded.append(result)
        assert decoded[0] == decoded[1] == value
        assert type(decoded[0]) is type(decoded[1])

    def test_int64_boundaries_stay_tagged_ints(self):
        for value in (0, 1, -1, 2**63 - 1, -(2**63)):
            native = _native_bytes(_core.put_value, value, {})
            assert native == _pure_bytes(codec._put_value_py, value, {})
            assert native[0] == codec._V_INT

    def test_overflow_ints_fall_back_to_pickle_identically(self):
        for value in (2**63, -(2**63) - 1, 2**200, -(2**200)):
            native = _native_bytes(_core.put_value, value, {})
            assert native == _pure_bytes(codec._put_value_py, value, {})
            assert native[0] == codec._V_PICKLE
            reader = _core.Reader(native)
            assert reader.value() == value

    def test_nested_message_payload_parity(self):
        inner = Message(MessageKind.SIGNAL, "alpha", "beta", channel="bus",
                        time=1.25, msg_id=3, epoch=1,
                        payload=("engine", "clk", 1))
        native = _native_bytes(_core.put_value, inner, {})
        pure = _pure_bytes(codec._put_value_py, inner, {})
        assert native == pure
        for reader_cls in (_core.Reader, codec._PyReader):
            reader = reader_cls(native)
            clone = reader.value()
            reader.done()
            assert isinstance(clone, Message)
            assert clone.kind is inner.kind
            assert clone.payload == inner.payload

    @given(st.lists(st.text(max_size=6), min_size=0, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_shared_intern_table_across_values(self, texts):
        """One frame-scoped table serves every value in the frame."""
        native_out, pure_out = bytearray(), bytearray()
        native_tab, pure_tab = {}, {}
        for s in texts:
            _core.put_value(native_out, (s, s), native_tab)
            codec._put_value_py(pure_out, (s, s), pure_tab)
        assert bytes(native_out) == bytes(pure_out)


class TestReaderErrorParity:
    @pytest.mark.parametrize("blob", [
        b"",                                   # truncated tag
        bytes([codec._V_FLOAT]) + b"\x00" * 7,  # truncated f64
        bytes([codec._V_TUPLE]) + b"\xe8\x07",  # count 1000, nothing left
        bytes([codec._V_STR]) + b"\x02",        # back-ref into empty table
        bytes([codec._V_BYTES]) + b"\x09" + b"ab",  # length past end
        bytes([codec._V_PICKLE]) + b"\x02" + b"xx",  # unloadable pickle
        bytes([99]),                           # unknown tag
    ])
    def test_corruption_messages_match(self, blob):
        results = []
        for reader_cls in (_core.Reader, codec._PyReader):
            reader = reader_cls(blob)
            try:
                results.append(("ok", reader.value()))
            except TransportError as exc:
                results.append(("err", str(exc)))
        assert results[0] == results[1]
        assert results[0][0] == "err"

    def test_undecodable_string_is_reported_at_its_start_by_both(self):
        """Found by ``test_fuzzed_blobs_never_diverge``: the pure reader
        had already stepped over the string when it reported it."""
        blob = b"\x05\x0b\x00\x00\x00\x00\x80"
        messages = []
        for reader_cls in (_core.Reader, codec._PyReader):
            with pytest.raises(TransportError) as err:
                reader_cls(blob).value()
            messages.append(str(err.value))
        assert messages[0] == messages[1]
        assert messages[0].endswith("undecodable string at offset 2")

    def test_trailing_bytes_message_matches(self):
        blob = _native_bytes(_core.put_value, None, {}) + b"\x00\x00"
        results = []
        for reader_cls in (_core.Reader, codec._PyReader):
            reader = reader_cls(blob)
            reader.value()
            with pytest.raises(TransportError) as err:
                reader.done()
            results.append(str(err.value))
        assert results[0] == results[1]
        assert "trailing" in results[0]

    @given(st.binary(max_size=64))
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_blobs_never_diverge(self, blob):
        """Arbitrary bytes: both readers accept with equal values or
        reject with equal errors — and the C one never crashes."""
        results = []
        for reader_cls in (_core.Reader, codec._PyReader):
            reader = reader_cls(blob)
            try:
                value = reader.value()
                reader.done()
                results.append(("ok", repr(value)))
            except TransportError as exc:
                results.append(("err", str(exc)))
        assert results[0] == results[1]
