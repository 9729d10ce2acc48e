"""Grayscale raster images and bilinear sampling at scattered planar points.

Pixel (row, col) sits at Cartesian (col - width/2, height/2 - row) with unit
pixel spacing, so the image is centered at the origin.  Points outside the
image sample 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParseError


@dataclass(frozen=True)
class RasterImage:
    pixels: np.ndarray  # (height, width), values in [0, 1]

    def __post_init__(self):
        p = np.asarray(self.pixels, dtype=float)
        if p.ndim != 2 or p.size == 0:
            raise ValueError("pixels must be a nonempty 2D array")
        object.__setattr__(self, "pixels", p)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


def bilinear_sample(image: RasterImage, points) -> np.ndarray:
    """Sample the image at Cartesian points of any shape (..., 2)."""
    pts = np.asarray(points, dtype=float)
    shape = pts.shape[:-1]
    pts = pts.reshape(-1, 2)
    # Clipping keeps far points' corners outside the image, and their int casts and weights finite.
    col = np.clip(pts[:, 0] + image.width / 2.0, -1, image.width)
    row = np.clip(image.height / 2.0 - pts[:, 1], -1, image.height)
    c0 = np.floor(col).astype(int)
    r0 = np.floor(row).astype(int)
    fc = col - c0
    fr = row - r0
    out = np.zeros(len(pts))
    for dr, dc, w in (
        (0, 0, (1 - fr) * (1 - fc)),
        (0, 1, (1 - fr) * fc),
        (1, 0, fr * (1 - fc)),
        (1, 1, fr * fc),
    ):
        rr = r0 + dr
        cc = c0 + dc
        inside = (rr >= 0) & (rr < image.height) & (cc >= 0) & (cc < image.width)
        vals = np.zeros(len(pts))
        vals[inside] = image.pixels[rr[inside], cc[inside]]
        out += w * vals
    return out.reshape(shape)


def load_pgm(path) -> RasterImage:
    """Read a binary (P5) or ASCII (P2) PGM file, scaled to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        magic, rest = data.split(None, 1)
    except ValueError as exc:
        raise ParseError(f"{path}: empty PGM") from exc
    if magic not in (b"P2", b"P5"):
        raise ParseError(f"{path}: not a PGM file (magic {magic!r})")

    # Header tokens (width, height, maxval), skipping '#' comments.
    tokens = []
    pos = 0
    while len(tokens) < 3:
        while pos < len(rest) and rest[pos : pos + 1].isspace():
            pos += 1
        if pos < len(rest) and rest[pos : pos + 1] == b"#":
            nl = rest.find(b"\n", pos)
            pos = len(rest) if nl < 0 else nl + 1
            continue
        start = pos
        while pos < len(rest) and not rest[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ParseError(f"{path}: truncated PGM header")
        tokens.append(rest[start:pos])
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise ParseError(f"{path}: bad PGM header") from exc
    if width < 1 or height < 1 or maxval < 1:
        raise ParseError(f"{path}: bad PGM dimensions")

    if magic == b"P5":
        pos += 1  # single whitespace byte after maxval
        bpp = 1 if maxval < 256 else 2
        need = width * height * bpp
        raw = rest[pos : pos + need]
        if len(raw) != need:
            raise ParseError(f"{path}: truncated PGM payload")
        dtype = np.uint8 if bpp == 1 else ">u2"
        arr = np.frombuffer(raw, dtype=dtype).astype(float)
    else:
        try:
            arr = np.array([int(t) for t in rest[pos:].split()], dtype=float)
        except ValueError as exc:
            raise ParseError(f"{path}: bad ASCII PGM payload") from exc
        if arr.size != width * height:
            raise ParseError(f"{path}: expected {width * height} samples, got {arr.size}")
    return RasterImage(arr.reshape(height, width) / maxval)


def load_csv_image(path) -> RasterImage:
    """Read a CSV matrix of grayscale values (already in [0, 1] or arbitrary scale)."""
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2)
    except ValueError as exc:
        raise ParseError(f"{path}: bad CSV image: {exc}") from exc
    if arr.size == 0 or not np.all(np.isfinite(arr)):
        raise ParseError(f"{path}: a CSV image must be a nonempty matrix of finite values")
    peak = np.abs(arr).max()
    if peak > 1:
        arr = arr / peak
    return RasterImage(arr)


def load_image(path) -> RasterImage:
    path = str(path)
    if path.endswith(".csv"):
        return load_csv_image(path)
    return load_pgm(path)


def synthetic_image(height: int = 96, width: int = 96, seed: int = 7) -> RasterImage:
    """A deterministic natural-looking test image: smooth blobs, an edge, mild texture."""
    rng = np.random.default_rng(seed)
    y, x = np.mgrid[0:height, 0:width]
    cx, cy = width / 2, height / 2
    img = 0.35 + 0.3 * np.exp(-(((x - cx + 10) ** 2 + (y - cy - 6) ** 2) / (0.08 * width * height)))
    img += 0.25 * np.exp(-(((x - cx - 14) ** 2 + (y - cy + 12) ** 2) / (0.03 * width * height)))
    img += 0.2 * (x > cx + 0.15 * width)  # a hard vertical edge
    img += 0.05 * np.sin(2 * np.pi * 3 * x / width) * np.cos(2 * np.pi * 2 * y / height)
    img += 0.02 * rng.standard_normal((height, width))
    img = np.clip(img, 0.0, 1.0)
    return RasterImage(img)
