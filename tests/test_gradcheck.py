import dataclasses

import numpy as np
import pytest

from spdhgr import gradcheck, layers
from spdhgr.errors import InvalidInput
from spdhgr.gradcheck import (
    LAYER_CHECKS,
    PER_LAYER_TOL,
    TINY_CONFIG,
    check_end_to_end,
    check_layer,
    fd_gradient,
    rel_error,
    run_all,
)
from spdhgr.network import NetworkParams
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


def test_failing_layer_reported_by_name(monkeypatch):
    monkeypatch.setitem(gradcheck.LAYER_CHECKS, "gauss_agg", lambda rng: 1.0)
    results = {res.name: res for res in run_all(trials=1, include_end_to_end=False)}
    assert not results["gauss_agg"].passed
    assert all(res.passed for name, res in results.items() if name != "gauss_agg")


def test_zero_trials_rejected():
    with pytest.raises(InvalidInput, match="trials must be >= 1, got 0"):
        check_layer("gauss_agg", seed=0, trials=0)


def _scaled(fn, which):
    """``fn`` with its result times 1.001: all of it (``which`` None), only
    its ``which``-th returned gradient, or, where it returns one array, only
    that array's ``which``-th slice along the first axis."""
    def wrapped(*args, **kwargs):
        out = fn(*args, **kwargs)
        if which is None:
            return out * 1.001
        if isinstance(out, np.ndarray):
            out = out.copy()
            out[which] *= 1.001
            return out
        return tuple(g * 1.001 if i == which else g for i, g in enumerate(out))
    return wrapped


# (layer check, module and name of the function it takes its analytic
# gradient from, index of the returned gradient or None for a single one;
# conv's single (9, d_out, 3) gradient is also scaled one filter at a time)
ANALYTIC_GRADIENTS = [
    ("gauss_agg", layers, "gauss_agg_backward", None),
    ("reeig", gradcheck, "spectral_grad", None),
    ("logeig", gradcheck, "spectral_grad", None),
    ("rect_log_vec", layers, "_rect_log_vec_grad_rows", None),
    ("vecmat", gradcheck, "_sym_unvectorize_grad_stack", None),
    ("spd_agg", layers, "spd_agg_backward", 0),
    ("spd_agg", layers, "spd_agg_backward", 1),
    ("conv", layers, "conv_backward", None),
    ("conv", layers, "conv_backward", 0),
    ("conv", layers, "conv_backward", 1),
    ("head", layers, "head_backward", 0),
    ("head", layers, "head_backward", 1),
    ("head", layers, "head_backward", 2),
    ("st_branch", layers, "branch_backward", None),
    ("ts_branch", layers, "branch_backward", None),
]


@pytest.mark.parametrize("name, module, function, which", ANALYTIC_GRADIENTS,
                         ids=[f"{n}-{w}" for n, _, _, w in ANALYTIC_GRADIENTS])
def test_every_layer_gradient_is_compared(monkeypatch, name, module, function, which):
    """A 0.1% error in any one analytic gradient fails its layer check."""
    monkeypatch.setattr(module, function, _scaled(getattr(module, function), which))
    assert not check_layer(name, 0, trials=1).passed


@pytest.mark.parametrize("field", [None] + [f.name for f in dataclasses.fields(NetworkParams)])
def test_every_parameter_gradient_is_compared_end_to_end(monkeypatch, field):
    """The end-to-end check passes on the analytic gradients as they are
    (``field`` None) and fails on a 0.1% error in any one parameter's; a
    small st_only config keeps the sweep short."""
    backward = gradcheck.backward

    def wrong(*args, **kwargs):
        grads = backward(*args, **kwargs)
        return dataclasses.replace(grads, **{field: getattr(grads, field) * 1.001})

    if field is not None:
        monkeypatch.setattr(gradcheck, "backward", wrong)
    config = dataclasses.replace(TINY_CONFIG, variant="st_only", d_out_c=1, d_out_s=2)
    assert check_end_to_end(0, config).passed == (field is None)
