"""Behavioural probes: the forward has the properties its layout claims,
checked on an untrained network.

The temporal pyramid (whole sequence, halves, thirds) sees temporal order
only through which sub-sequence a Gaussian covers: each Gaussian stage is
invariant to the order of its rows. So reversing the frames and mirroring
the aggregation weight's sub-sequence blocks leaves Y where it was,
wherever every branch splits evenly (a metamorphic relation), and not
where a branch's chunks split unevenly.
"""

import dataclasses

import numpy as np
import pytest

from spdhgr.network import FAMILIES, NetworkConfig, forward, init_params
from spdhgr.skeleton import N_BRANCHES, N_FINGERS

# sub-sequence s of a reversed sequence covers the frames of sub-sequence
# MIRROR[s] of the original: the whole stays, the halves swap, the first
# and third thirds swap
MIRROR = (0, 2, 1, 5, 4, 3)


def mirror_blocks(w_hat: np.ndarray, config: NetworkConfig) -> np.ndarray:
    """``w_hat`` with block s * 5 + f of each family taking block
    MIRROR[s] * 5 + f; fingers keep their places."""
    order = [family * N_BRANCHES + MIRROR[s] * N_FINGERS + f
             for family in range(len(FAMILIES[config.variant]))
             for s in range(len(MIRROR)) for f in range(N_FINGERS)]
    blocks = w_hat.reshape(w_hat.shape[0], -1, config.d_in_s)
    return blocks[:, order].reshape(w_hat.shape)


@pytest.mark.parametrize("variant, n_frames, n_chunks, even", [
    ("st_only", 60, 4, True),
    ("st_ts", 48, 4, True),
    ("ts_only", 48, 4, True),
    ("st_ts", 60, 4, False),  # 30-frame halves in 4 chunks
])
def test_reversed_frames_with_mirrored_blocks_keep_y(variant, n_frames, n_chunks, even):
    config = NetworkConfig(n_classes=2, d_out_c=3, d_out_s=20, n_frames=n_frames,
                           n_chunks=n_chunks, variant=variant)
    params = init_params(config, 0)
    coords = np.random.default_rng(1).standard_normal((n_frames, 20, 3))
    y = forward(coords, params, config)[2]
    mirrored = dataclasses.replace(params, w_hat=mirror_blocks(params.w_hat, config))
    y_reversed = forward(coords[::-1], mirrored, config)[2]
    gap = np.max(np.abs(y_reversed - y)) / np.max(np.abs(y))
    if even:
        assert gap <= 1e-12
    else:
        assert gap > 1e-6
