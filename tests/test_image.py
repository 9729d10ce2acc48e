import math

import numpy as np
import pytest

from rotap import bilinear_sample, synthetic_image
from rotap.image import load_image

FAR = [(1e300, 0.5), (-1e300, 0.5), (0.5, 1e300), (0.5, -1e300), (1e20, 1e20)]


def test_far_points_sample_zero():
    # Pixel coordinates of these points overflow an int cast; they must still
    # sample 0, without a RuntimeWarning (an error under the test settings).
    img = synthetic_image(8, 8)
    assert np.array_equal(bilinear_sample(img, FAR), np.zeros(len(FAR)))
    # Point (-1, 2) sits on pixel (row 2, col 3), so bilinear weights reduce to it.
    assert bilinear_sample(img, [(-1.0, 2.0)])[0] == img.pixels[2, 3]


def reference_sample(pixels: np.ndarray, x: float, y: float) -> float:
    """Bilinear sample of one point in Python floats, reading 0 for every pixel outside the image."""
    height, width = pixels.shape
    col = min(max(x + width / 2.0, -1.0), width)
    row = min(max(height / 2.0 - y, -1.0), height)
    c0, r0 = math.floor(col), math.floor(row)
    fc, fr = col - c0, row - r0
    total = 0.0
    for r, c, w in ((r0, c0, (1 - fr) * (1 - fc)), (r0, c0 + 1, (1 - fr) * fc),
                    (r0 + 1, c0, fr * (1 - fc)), (r0 + 1, c0 + 1, fr * fc)):
        total += w * (pixels[r, c] if 0 <= r < height and 0 <= c < width else 0.0)
    return total


@pytest.mark.parametrize("height, width", [(8, 8), (5, 9), (1, 1)])
def test_bilinear_matches_per_point_reference(rng, height, width):
    img = synthetic_image(height, width, seed=height + width)
    random = rng.uniform(-0.75, 0.75, (4000, 2)) * (width, height)
    edges = [(sx * width / 2, y) for sx in (-1, 1) for y in np.linspace(-height, height, 33)]
    edges += [(x, sy * height / 2) for sy in (-1, 1) for x in np.linspace(-width, width, 33)]
    centres = [(c - width / 2, height / 2 - r) for r in range(height) for c in range(width)]
    points = np.concatenate([random, FAR, edges, centres])
    expected = np.array([reference_sample(img.pixels, x, y) for x, y in points])
    assert bilinear_sample(img, points).tobytes() == expected.tobytes()
    # Any leading shape: the samples come back in the points' shape.
    assert np.array_equal(bilinear_sample(img, random[:24].reshape(2, 3, 4, 2)), expected[:24].reshape(2, 3, 4))


RAW = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20


@pytest.mark.parametrize(
    "data, expected",
    [
        (b"P5\n4 3\n255\n" + RAW.tobytes(), RAW / 255),
        (b"P5\n4 3\n60000\n" + (RAW * np.uint16(250)).astype(">u2").tobytes(), RAW * 250.0 / 60000),
        (b"P2\n4 3\n255\n" + " ".join(map(str, RAW.ravel())).encode() + b"\n", RAW / 255),
    ],
    ids=["p5-8bit", "p5-16bit", "p2"],
)
def test_pgm_pixels_are_samples_over_maxval(tmp_path, data, expected):
    path = tmp_path / "img.pgm"
    path.write_bytes(data)
    assert load_image(path).pixels.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "header",
    [
        b"P5\n# a comment\n4\n#\n# two\n3 # after a token\n#\n255\n",
        b"P5#right after the magic\n4#right after the width\n3\t#\r\n255\n",
    ],
    ids=["comment-lines", "comments-after-tokens"],
)
def test_pgm_comments_between_header_tokens(tmp_path, header):
    # The second header puts each comment right after a token, which the format
    # allows: a comment ends a token as whitespace does.
    path = tmp_path / "img.pgm"
    path.write_bytes(header + RAW.tobytes())
    assert load_image(path).pixels.tobytes() == (RAW / 255).tobytes()

