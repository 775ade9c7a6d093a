"""The JPEG-flavoured codec and the HTML substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import jpeg
from repro.apps.html import Document, parse, parse_cost, tokenize
from repro.core import SimulationError


def psnr(original, decoded):
    """Peak signal-to-noise ratio in dB (inf for identical images)."""
    difference = original.astype(np.float64) - decoded.astype(np.float64)
    mse = float(np.mean(difference * difference))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0 * 255.0 / mse)


class TestJpegCodec:
    def test_roundtrip_quality(self):
        image = jpeg.synthetic_image(64, 64, seed=3)
        blob = jpeg.encode(image, quality=50)
        decoded = jpeg.decode(blob)
        assert decoded.shape == image.shape
        assert psnr(image, decoded) > 24.0

    def test_higher_quality_bigger_and_better(self):
        image = jpeg.synthetic_image(64, 64, seed=5)
        low = jpeg.encode(image, quality=20)
        high = jpeg.encode(image, quality=90)
        assert len(high) > len(low)
        assert psnr(image, jpeg.decode(high)) > \
            psnr(image, jpeg.decode(low))

    def test_compresses(self):
        image = jpeg.synthetic_image(128, 128, seed=1)
        blob = jpeg.encode(image, quality=50)
        assert len(blob) < image.size / 2

    def test_flat_image_is_tiny(self):
        image = np.full((32, 32), 128, dtype=np.uint8)
        blob = jpeg.encode(image)
        assert len(blob) < 300
        assert psnr(image, jpeg.decode(blob)) > 40

    def test_info_header(self):
        image = jpeg.synthetic_image(48, 24, seed=0)
        header = jpeg.info(jpeg.encode(image, quality=66))
        assert (header.width, header.height) == (48, 24)
        assert header.quality == 66
        assert header.blocks == (48 // 8) * (24 // 8)

    def test_deterministic_encoding(self):
        image = jpeg.synthetic_image(40, 40, seed=9)
        assert jpeg.encode(image) == jpeg.encode(image)

    def test_bad_dimensions(self):
        with pytest.raises(SimulationError):
            jpeg.encode(np.zeros((10, 10), dtype=np.uint8))

    def test_bad_quality(self):
        with pytest.raises(SimulationError):
            jpeg.encode(np.zeros((8, 8), dtype=np.uint8), quality=0)

    def test_bad_magic(self):
        with pytest.raises(SimulationError):
            jpeg.decode(b"nope")
        with pytest.raises(SimulationError):
            jpeg.info(b"nope")

    def test_truncated_stream(self):
        image = jpeg.synthetic_image(16, 16)
        blob = jpeg.encode(image)
        with pytest.raises(SimulationError):
            jpeg.decode(blob[: len(blob) // 2])

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50)
    def test_varint_roundtrip(self, value):
        from repro.apps.jpeg import _read_varint, _write_varint
        for signed in (value, -value):
            out = bytearray()
            _write_varint(out, signed)
            back, pos = _read_varint(bytes(out), 0)
            assert back == signed
            assert pos == len(out)

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=20, deadline=None)
    def test_roundtrip_shapes(self, blocks, seed):
        size = 8 * blocks
        image = jpeg.synthetic_image(size, size, seed=seed)
        decoded = jpeg.decode(jpeg.encode(image))
        assert decoded.shape == image.shape
        assert decoded.dtype == np.uint8


class TestHtml:
    PAGE = (b"<html><head><title>Hi</title></head><body>"
            b"<!-- note --><h1 class='x'>Head</h1>"
            b"<img src='/a.pj1'><img src=\"/b.pj1\" alt=pic>"
            b"<a href='/next'>go</a>some text</body></html>")

    def test_tokenize_kinds(self):
        kinds = [t.kind for t in tokenize(self.PAGE.decode())]
        assert "comment" in kinds
        assert "endtag" in kinds
        assert kinds.count("text") >= 3

    def test_parse_extracts_structure(self):
        doc = parse(self.PAGE)
        assert doc.title == "Hi"
        assert doc.images == ["/a.pj1", "/b.pj1"]
        assert doc.links == ["/next"]
        assert doc.text_bytes > 0
        assert doc.token_count > 8

    def test_attribute_forms(self):
        tokens = list(tokenize('<img src="/q.png" alt=\'x y\' width=8>'))
        attrs = dict(tokens[0].attrs)
        assert attrs == {"src": "/q.png", "alt": "x y", "width": "8"}

    def test_malformed_markup_never_raises(self):
        for ugly in ["<", "<>", "a<b", "<x", "<!-- unterminated",
                     "</lonely>", "<img src=>"]:
            list(tokenize(ugly))
            parse(ugly.encode())

    def test_self_closing(self):
        tokens = list(tokenize("<br/><img src='/a'/>"))
        assert tokens[0].value == "br"
        assert dict(tokens[1].attrs)["src"] == "/a"

    def test_costs_scale_with_input(self):
        small = parse_cost(b"x" * 100)
        large = parse_cost(b"x" * 10_000)
        assert large["alu"] == 100 * small["alu"]
        doc = parse(self.PAGE)
        assert doc.layout_cost()["alu"] > 0

    def test_non_utf8_rejected(self):
        with pytest.raises(SimulationError):
            parse(b"\xff\xfe\x00bad")
