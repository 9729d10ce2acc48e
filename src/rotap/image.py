"""Grayscale raster images and bilinear sampling at scattered planar points.

Pixel (row, col) sits at Cartesian (col - width/2, height/2 - row) with unit pixel spacing, so
the image is centered at the origin.  Points outside the image sample 0.
"""

from __future__ import annotations

import re
import warnings
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
    """Sample the image at Cartesian points of any shape (..., 2), none of them NaN."""
    x, y = np.moveaxis(np.asarray(points, dtype=float), -1, 0)
    # Clipping keeps far points' int casts and weights finite, and puts their corners
    # in the zero border of ``padded``: one row and column before the image, two after.
    col = np.clip(x + image.width / 2.0, -1, image.width)
    row = np.clip(image.height / 2.0 - y, -1, image.height)
    c0 = np.floor(col).astype(int)
    r0 = np.floor(row).astype(int)
    fc = col - c0
    fr = row - r0
    padded = np.pad(image.pixels, ((1, 2), (1, 2)))
    out = np.zeros(col.shape)
    for dr, wr in ((1, 1 - fr), (2, fr)):
        for dc, wc in ((1, 1 - fc), (2, fc)):
            out += wr * wc * padded[r0 + dr, c0 + dc]
    return out


# Magic, then width, height and maxval, each after whitespace or '#' comment lines, then one whitespace byte.
_PGM_HEADER = re.compile(rb"(P[25])" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")


def load_pgm(path) -> RasterImage:
    """Read a binary (P5) or ASCII (P2) PGM file, scaled to [0, 1].

    Raises :class:`ParseError` unless 1 <= maxval <= 65535 and every sample is an unsigned integer <= maxval.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    header = _PGM_HEADER.match(data)
    if header is None:
        raise ParseError(f"{path}: not a PGM file, or a bad PGM header")
    try:
        width, height, maxval = map(int, header.groups()[1:])
    except ValueError as exc:  # more digits than int() converts
        raise ParseError(f"{path}: bad PGM header") from exc
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise ParseError(f"{path}: bad PGM dimensions or maxval")
    payload = data[header.end() :]
    if header[1] == b"P5":
        dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
        arr = np.frombuffer(payload, dtype, count=min(width * height, len(payload) // dtype.itemsize)).astype(float)
    else:
        tokens = payload.split()
        if not all(t.isdigit() for t in tokens):
            raise ParseError(f"{path}: P2 samples must be unsigned decimal tokens")
        arr = np.array(tokens, dtype=float)
    if arr.size != width * height or arr.max() > maxval:
        raise ParseError(f"{path}: expected {width * height} samples from 0 to maxval {maxval}")
    return RasterImage(arr.reshape(height, width) / maxval)


def load_csv_matrix(path) -> np.ndarray:
    """A CSV file's rows as a 2D float array; :class:`ParseError` if it is malformed or holds no data."""
    with warnings.catch_warnings():
        warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(path, delimiter=",", ndmin=2)
        except (UserWarning, ValueError) as exc:
            raise ParseError(f"{path}: bad CSV matrix: {exc}") from exc


def load_image(path) -> RasterImage:
    """Read a PGM file, or a CSV matrix of grayscale values divided by its largest magnitude if that exceeds 1."""
    if not str(path).endswith(".csv"):
        return load_pgm(path)
    arr = load_csv_matrix(path)
    if not np.all(np.isfinite(arr)):
        raise ParseError(f"{path}: a CSV image must hold finite values")
    return RasterImage(arr / max(1.0, np.abs(arr).max()))


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
    return RasterImage(np.clip(img, 0.0, 1.0))
