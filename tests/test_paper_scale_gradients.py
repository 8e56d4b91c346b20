"""One paper-scale sequence's gradients against central differences.

`spdhgr gradcheck` and the acceptance gate difference every entry, but
only on small instances. At paper scale (500 frames, 56x56 branch
descriptors, a 200x3360 aggregation weight, 14 classes) window spectra
clamp at eps and reach condition numbers near 1e7. This checks the
whole chained backward there, one random direction per tensor, at the
gate's end-to-end tolerance.
"""

import dataclasses

import numpy as np
import pytest

from spdhgr.gradcheck import END_TO_END_TOL
from spdhgr.layers import cross_entropy
from spdhgr.network import NetworkConfig, backward, forward, init_params
from spdhgr.optim import project_tangent
from spdhgr.skeleton import N_GRID_NODES

STEP = 1e-5


@pytest.fixture(scope="module", params=["st_ts", "st_only", "ts_only", "still"])
def paper_pass(request):
    """Each variant on one random sequence, and (``still``) ``st_ts`` with the
    hand held still over frames [100, 300), where 41% of the windows clamp
    at eps."""
    still = request.param == "still"
    config = NetworkConfig(n_classes=14, variant="st_ts" if still else request.param).validate()
    rng = np.random.default_rng(0)
    params = init_params(config, 0)
    # a zero FC layer, as initialized, makes the conv and w_hat gradients exactly zero
    params.fc_weight = 0.01 * rng.standard_normal(params.fc_weight.shape)
    coords = rng.standard_normal((config.n_frames, N_GRID_NODES, 3))
    if still:
        coords[100:300] = coords[100]
    label = int(rng.integers(config.n_classes))
    _, ctx, _ = forward(coords, params, config)
    if still:  # the check below then runs through clamped spectra
        for branch in ctx.branches:
            vals = branch.spectral_cache[1]
            assert np.mean(np.any(vals < config.epsilon, axis=1)) >= 0.3, branch.kind
    return config, params, coords, label, backward(ctx, label)


def _unit(a):
    return a / np.linalg.norm(a)


@pytest.mark.parametrize("seed, name", [(1, "conv"), (2, "w_hat"), (3, "fc_weight"),
                                        (4, "fc_bias")])
def test_directional_derivative_matches_central_difference(paper_pass, seed, name):
    """d/dh L(p + h v) at 0 equals <dL/dp, v>; for w_hat, v is a Stiefel
    tangent direction, the one the optimizer steps along."""
    config, params, coords, label, grads = paper_pass
    value = getattr(params, name)
    direction = _unit(np.random.default_rng(seed).standard_normal(value.shape))
    if name == "w_hat":
        direction = _unit(project_tangent(value, direction))

    def loss(h):
        moved = dataclasses.replace(params, **{name: value + h * direction})
        probs, _, _ = forward(coords, moved, config)
        return cross_entropy(probs, label)

    central = (loss(STEP) - loss(-STEP)) / (2 * STEP)
    analytic = float(np.sum(getattr(grads, name) * direction))
    assert analytic != 0.0
    assert abs(analytic - central) <= END_TO_END_TOL * max(abs(analytic), abs(central))
