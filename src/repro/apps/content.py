"""The test page: "approximately 66KB of data, including graphics".

The paper's experiment loads the Pia homepage — about 66 KB of HTML plus
images — through the simulated system.  This module builds a deterministic
synthetic equivalent: an HTML document referencing JPEG-coded images,
padded so that the total payload is *exactly* the requested byte budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..core.errors import SimulationError
from . import jpeg

#: The paper's page size.
DEFAULT_TOTAL_BYTES = 66_000

_FILLER_SENTENCE = (
    "Pia provides a distributed hardware-software co-simulator and tools "
    "for schematic capture as well as a means of connecting these to "
    "synthesis tools and actual hardware. ")


@dataclass
class PageContent:
    """A complete site: one HTML page plus its image resources."""

    html: bytes
    images: Dict[str, bytes] = field(default_factory=dict)

    @property
    def total_bytes(self) -> int:
        return len(self.html) + sum(len(blob) for blob in self.images.values())

    def resource(self, path: str) -> bytes:
        if path in ("/", "/index.html"):
            return self.html
        try:
            return self.images[path]
        except KeyError:
            raise SimulationError(f"404: no resource {path!r}") from None



def build_page(*, total_bytes: int = DEFAULT_TOTAL_BYTES,
               image_count: int = 4, image_size: int = 160,
               quality: int = 50, seed: int = 7) -> PageContent:
    """Build a page whose payload is exactly ``total_bytes``.

    Images are encoded first; the HTML body is then padded with filler
    prose to hit the budget.  Raises if the images alone exceed it.
    """
    images: Dict[str, bytes] = {}
    for index in range(image_count):
        pixels = jpeg.synthetic_image(image_size, image_size,
                                      seed=seed + index)
        images[f"/img{index}.pj1"] = jpeg.encode(pixels, quality=quality)
    image_bytes = sum(len(blob) for blob in images.values())

    head = (
        "<html><head><title>Pia — distributed co-simulation</title></head>\n"
        "<body>\n<h1>The Pia Project</h1>\n"
    )
    tags = "".join(f'<img src="/img{i}.pj1" alt="figure {i}">\n'
                   for i in range(image_count))
    tail = "</body></html>\n"
    skeleton = head + tags + tail
    budget = total_bytes - image_bytes - len(skeleton.encode())
    if budget < 0:
        raise SimulationError(
            f"images alone take {image_bytes} bytes; cannot fit a "
            f"{total_bytes}-byte page (skeleton needs "
            f"{len(skeleton.encode())})")
    filler = (_FILLER_SENTENCE * (budget // len(_FILLER_SENTENCE) + 1))[:budget]
    # Keep the filler valid HTML text by trimming at the byte level only;
    # the filler is pure ASCII so slicing is safe.
    html = (head + tags + "<p>" + filler[:-7] + "</p>" + tail) \
        if budget >= 7 else (head + tags + filler + tail)
    page = PageContent(html=html.encode(), images=images)
    if page.total_bytes != total_bytes:
        raise SimulationError(
            f"page budget error: built {page.total_bytes}, "
            f"wanted {total_bytes}")
    return page
