"""Expert-inspection helpers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mambamoe.inspect_experts import downsample_labels


def loop_downsample(labels: np.ndarray, factor: int = 2) -> np.ndarray:
    """Reference: one bincount per block."""
    h, w = labels.shape
    h2, w2 = h // factor, w // factor
    out = np.zeros((h2, w2), dtype=labels.dtype)
    max_id = int(labels.max(initial=0))
    for r in range(h2):
        for c in range(w2):
            block = labels[r * factor : (r + 1) * factor, c * factor : (c + 1) * factor].ravel()
            counts = np.bincount(block, minlength=max_id + 1)
            counts[0] = 0
            out[r, c] = counts.argmax() if counts.sum() else 0
    return out


class TestDownsampleLabels:
    def test_hand_cases(self):
        labels = np.array(
            [
                [0, 0, 2, 1, 0, 3],
                [0, 0, 1, 2, 0, 0],
            ]
        )
        # all unlabeled; a 2-2 tie goes to the lower id; unlabeled pixels do not outvote a label
        np.testing.assert_array_equal(downsample_labels(labels), [[0, 1, 3]])

    @given(st.integers(0, 2**32 - 1), st.integers(0, 13), st.integers(0, 13), st.integers(1, 6), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_loop_oracle(self, seed, h, w, n_ids, factor):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, n_ids, size=(h, w)).astype(np.int64)
        if h >= 2 and w >= 2:
            labels[:2, :2] = 0  # at least one all-unlabeled block when factor is 2
        expected = loop_downsample(labels, factor)
        got = downsample_labels(labels, factor)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
