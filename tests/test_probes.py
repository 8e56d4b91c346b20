"""Behavioural probes: the forward has the properties its layout claims,
checked on an untrained network.

The temporal pyramid (whole sequence, halves, thirds) sees temporal order
only through which sub-sequence a Gaussian covers: each Gaussian stage is
invariant to the order of its rows. So reversing the frames and mirroring
the aggregation weight's sub-sequence blocks leaves Y where it was,
wherever every branch splits evenly (a metamorphic relation), and not
where a branch's chunks split unevenly.

The SVM probes ask the same of whole features. Two classes differ only in
a property the paper's layout is meant to see, and a linear SVM on the
untrained network's features must tell them apart, while features that
cannot see the property stay near chance:
- reversal: class 1 is class 0 played backwards (a sway that grows or
  shrinks), which only temporal order tells apart;
- coupling: finger 3 moves in or out of phase with finger 2, with equal
  per-joint marginals, which only a mix of the two fingers tells apart.
  The lattice convolution mixes neighbouring fingers in ``full`` mode
  alone; the SPD aggregation sums per-branch terms, each of one finger,
  so in ``physical`` mode nothing later sees the coupling.
With 20 test sequences per class, chance reads 0.5 give or take 0.08.
"""

import dataclasses

import numpy as np
import pytest

from spdhgr.network import FAMILIES, VARIANTS, NetworkConfig, extract_features, forward, init_params
from spdhgr.skeleton import N_BRANCHES, N_FINGERS, N_LEVELS
from spdhgr.svm import svm_accuracy, svm_train

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


# ---------------------------------------------------------------------------
# SVM probes

PROBE_FRAMES = 60
PER_CLASS = 20  # train and test sequences per class
# each lattice node at (finger, level) in the x-y plane
TEMPLATE = np.array([[f, level, 0.0] for f in range(N_FINGERS) for level in range(N_LEVELS)])
FINGER_2, FINGER_3 = (np.arange(N_LEVELS * f, N_LEVELS * (f + 1)) for f in (1, 2))


def _still_hand(rng):
    """(frames, 20, 3): the template with a per-sequence pose jitter and
    per-frame noise."""
    return (TEMPLATE + 0.05 * rng.standard_normal(TEMPLATE.shape)
            + 0.01 * rng.standard_normal((PROBE_FRAMES,) + TEMPLATE.shape))


def _wave(rng):
    """(frames, 1, 3): a unit z-axis sine of 3-5 cycles over the sequence
    at a random phase."""
    t = np.linspace(0.0, 1.0, PROBE_FRAMES)
    cycles, phase = rng.uniform(3.0, 5.0), rng.uniform(0.0, 2.0 * np.pi)
    return np.sin(2.0 * np.pi * cycles * t + phase)[:, None, None] * [0.0, 0.0, 1.0]


def reversal_sequence(rng, label):
    """The whole hand sways with an amplitude that grows (class 0) or,
    played backwards, shrinks (class 1)."""
    amplitude = np.linspace(0.05, 0.55, PROBE_FRAMES)[:, None, None]
    coords = _still_hand(rng) + amplitude * _wave(rng)
    return coords[::-1].copy() if label else coords


def coupling_sequence(rng, label):
    """Fingers 2 and 3 move along one wave, in phase (class 0) or in
    opposite phase (class 1); the wave's random phase gives each joint
    the same marginal in both classes."""
    coords = _still_hand(rng)
    wave = _wave(rng)
    coords[:, FINGER_2] += wave
    coords[:, FINGER_3] += -wave if label else wave
    return coords


def probe_split(make, rng):
    """(coords, labels) of PER_CLASS sequences of each class, interleaved."""
    coords = [make(rng, label) for _ in range(PER_CLASS) for label in (0, 1)]
    return np.stack(coords), np.tile([0, 1], PER_CLASS)


@pytest.fixture(scope="module", params=["reversal", "coupling"])
def probe(request):
    """(name, train split, test split), drawn from the probe's own generator."""
    make = {"reversal": reversal_sequence, "coupling": coupling_sequence}[request.param]
    rng = np.random.default_rng(0)
    return request.param, probe_split(make, rng), probe_split(make, rng)


def probe_accuracy(features, train, test) -> float:
    """Test accuracy of a C=1 linear SVM on ``features`` of each sequence."""
    x_train, x_test = (np.stack([features(c) for c in split[0]]) for split in (train, test))
    return svm_accuracy(svm_train(x_train, train[1], c=1.0), x_test, test[1])


def mean_pose(coords):
    return coords.mean(axis=0).ravel()


def joint_variance(coords):
    return coords.var(axis=0).ravel()


def whole_sequence_gaussian(coords):
    """Mean and covariance of the 60-dim frame vectors over all frames."""
    x = coords.reshape(len(coords), -1)
    cov = np.cov(x.T, bias=True)
    return np.concatenate([x.mean(axis=0), cov[np.triu_indices(len(cov))]])


@pytest.mark.parametrize("variant", VARIANTS)
def test_network_features_see_the_probed_property(probe, variant):
    name, train, test = probe
    config = NetworkConfig(n_classes=2, d_out_c=3, d_out_s=20, n_frames=PROBE_FRAMES,
                           n_chunks=4, variant=variant)
    params = init_params(config, 0)
    assert probe_accuracy(lambda c: extract_features(c, params, config), train, test) >= 0.95
    if name == "coupling":  # only the full lattice mixes fingers 2 and 3
        physical = dataclasses.replace(config, grid_mode="physical")
        params = init_params(physical, 0)
        accuracy = probe_accuracy(lambda c: extract_features(c, params, physical), train, test)
        assert accuracy <= 0.65


def test_order_and_coupling_blind_features_stay_near_chance(probe):
    """The whole-sequence Gaussian sees the coupling (a cross-finger
    covariance) but not the order of frames."""
    name, train, test = probe
    baselines = [mean_pose, joint_variance]
    if name == "reversal":
        baselines.append(whole_sequence_gaussian)
    for features in baselines:
        assert probe_accuracy(features, train, test) <= 0.65, features.__name__
