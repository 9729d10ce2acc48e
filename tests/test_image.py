import numpy as np

from rotap import bilinear_sample, synthetic_image


def test_far_points_sample_zero():
    # Pixel coordinates of these points overflow an int cast; they must still
    # sample 0, without a RuntimeWarning (an error under the test settings).
    img = synthetic_image(8, 8)
    far = [(1e300, 0.5), (-1e300, 0.5), (0.5, 1e300), (0.5, -1e300), (1e20, 1e20)]
    assert np.array_equal(bilinear_sample(img, far), np.zeros(len(far)))
    # Point (-1, 2) sits on pixel (row 2, col 3), so bilinear weights reduce to it.
    assert bilinear_sample(img, [(-1.0, 2.0)])[0] == img.pixels[2, 3]
