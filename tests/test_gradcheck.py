import numpy as np
import pytest

from spdhgr.gradcheck import (
    LAYER_CHECKS,
    PER_LAYER_TOL,
    check_layer,
    fd_gradient,
    rel_error,
)
from spdhgr.symmat import symmetrize


class TestHarness:
    def test_fd_gradient_linear_function(self, rng):
        a = rng.standard_normal((3, 4))
        fd = fd_gradient(lambda x: float(np.sum(a * x)), rng.standard_normal((3, 4)))
        assert rel_error(a, fd) < 1e-9

    def test_fd_gradient_symmetric_pairing(self, rng):
        # for f(X) = <G, X> on symmetric X the FD gradient is sym(G)
        g = rng.standard_normal((4, 4))
        x0 = symmetrize(rng.standard_normal((4, 4)))
        fd = fd_gradient(lambda x: float(np.sum(g * x)), x0, symmetric=True)
        assert rel_error(symmetrize(g), fd) < 1e-9

    def test_rel_error_zero_gradients(self):
        assert rel_error(np.zeros(3), np.zeros(3)) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_all_layers_pass_across_seeds(seed):
    for name in LAYER_CHECKS:
        res = check_layer(name, seed=seed, trials=3)
        assert res.passed, f"{name} seed {seed}: {res.max_rel_err:.2e}"


def test_spectral_composites_many_instances():
    """Rectification and log-map backprop at finite-difference accuracy
    over 100 random SPD inputs, some with an exactly repeated eigenvalue
    or several clamped ones."""
    for name in ("reeig", "logeig"):
        res = check_layer(name, seed=42, trials=50)
        assert res.passed and res.tol == PER_LAYER_TOL, (
            f"{name}: {res.max_rel_err:.2e}"
        )


def test_corrupt_hook_targets_named_layer():
    res = check_layer("gauss_agg", seed=0, trials=1, corrupt=True)
    assert not res.passed and res.name == "gauss_agg"
