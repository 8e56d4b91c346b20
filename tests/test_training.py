import tracemalloc
import weakref

import numpy as np
import pytest

from spdhgr import training
from spdhgr.errors import ConfigError, InvalidInput, NumericalFailure
from spdhgr.layers import cross_entropy
from spdhgr.network import PARAM_TENSORS, NetworkConfig, forward, init_params
from spdhgr.optim import stiefel_error
from spdhgr.skeleton import SkeletonSequence, load_dhg, resample, write_synthetic_dataset
from spdhgr.training import train_network

CONFIG = NetworkConfig(n_classes=2, d_out_c=2, d_out_s=24, n_frames=12, t0=1,
                       n_chunks=2)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    write_synthetic_dataset(root, n_classes=2, train_per_class=5, n_frames=15, seed=3)
    return [resample(s, CONFIG.n_frames) for s in load_dhg(root, "train")]


class TestTrainLoop:
    def test_loss_decreases_and_records(self, dataset, tmp_path):
        params = init_params(CONFIG, 0)
        result = train_network(dataset, params, CONFIG, epochs=4, batch_size=30,
                               lr=0.01, seed=0, out_dir=tmp_path)
        assert len(result.epochs) == 4
        losses = [r.mean_loss for r in result.epochs]
        assert losses[-1] < losses[0]
        assert all(0.0 <= r.accuracy <= 1.0 for r in result.epochs)
        assert result.checkpoints == [f"epoch_{k:02d}.ckpt" for k in (1, 2, 3, 4)]
        for name in result.checkpoints:
            assert (tmp_path / name).is_file()
        assert stiefel_error(result.params.w_hat) <= 1e-8

    def test_deterministic_given_seed(self, dataset):
        r1 = train_network(dataset, init_params(CONFIG, 0), CONFIG, epochs=2,
                           batch_size=4, lr=0.01, seed=7)
        r2 = train_network(dataset, init_params(CONFIG, 0), CONFIG, epochs=2,
                           batch_size=4, lr=0.01, seed=7)
        assert [r.mean_loss for r in r1.epochs] == [r.mean_loss for r in r2.epochs]
        assert np.array_equal(r1.params.w_hat, r2.params.w_hat)

    def test_caller_arrays_keep_their_bytes(self, dataset):
        """The result holds new arrays; the ones passed in are not written,
        so back-to-back runs may start from one set."""
        params = init_params(CONFIG, 0)
        before = {name: getattr(params, name).tobytes() for name in PARAM_TENSORS}
        result = train_network(dataset, params, CONFIG, epochs=1, batch_size=4,
                               lr=0.01, seed=0)
        for name in PARAM_TENSORS:
            assert getattr(params, name).tobytes() == before[name]
            assert getattr(result.params, name).tobytes() != before[name]

    def test_one_context_at_a_time_and_one_batch_total(self, dataset, monkeypatch):
        """Each forward context is dropped before the next forward runs, so
        at most one is alive at any forward; every backward adds into the
        one batch total that the update then reads."""
        forward, backward = training.forward, training.backward
        euclid_sgd_step = training.euclid_sgd_step
        contexts, most_alive, totals, conv_steps = [], [], [], []

        def recording_forward(*args):
            out = forward(*args)
            contexts.append(weakref.ref(out[1]))
            most_alive.append(sum(ref() is not None for ref in contexts))
            return out

        def recording_backward(ctx, label, into=None):
            totals.append(into)
            return backward(ctx, label, into=into)

        def step(param, grad, lr):
            conv_steps.append(grad)
            return euclid_sgd_step(param, grad, lr)

        monkeypatch.setattr(training, "forward", recording_forward)
        monkeypatch.setattr(training, "backward", recording_backward)
        monkeypatch.setattr(training, "euclid_sgd_step", step)
        train_network(dataset, init_params(CONFIG, 0), CONFIG, epochs=1,
                      batch_size=len(dataset), lr=0.01, seed=7)
        # one batch: one backward per sequence, then the training passes'
        # forwards and the final evaluation's
        assert len(totals) == len(dataset) and len(contexts) == 2 * len(dataset)
        assert max(most_alive) == 1
        assert totals[0] is not None and all(t is totals[0] for t in totals)
        assert conv_steps[0] is totals[0].conv

    def test_nan_loss_aborts_with_batch_ids(self, dataset):
        params = init_params(CONFIG, 0)
        params.fc_weight = np.full_like(params.fc_weight, np.nan)
        with pytest.raises(NumericalFailure, match="batch"):
            train_network(dataset, params, CONFIG, epochs=1, batch_size=30, lr=0.01)

    def test_label_out_of_range(self, dataset):
        bad = list(dataset)
        bad[0] = resample(bad[0], CONFIG.n_frames)
        bad[0].label = 5
        with pytest.raises(ConfigError, match="labels"):
            train_network(bad, init_params(CONFIG, 0), CONFIG, epochs=1)
        bad[0].label = 0  # module-scoped fixture: restore

    @pytest.mark.parametrize("kwargs, message", [
        (dict(batch_size=0), "batch_size must be >= 1, got 0"),
        (dict(batch_size=-3), "batch_size must be >= 1, got -3"),
        (dict(epochs=-2), "epochs must be >= 0, got -2"),
        (dict(lr=float("-inf")), "lr must be finite, got -inf"),
        (dict(lr=float("nan")), "lr must be finite, got nan"),
        (dict(lr=float("inf")), "lr must be finite, got inf"),
    ])
    def test_bad_arguments_rejected(self, dataset, kwargs, message):
        with pytest.raises(ConfigError, match=message):
            train_network(dataset, init_params(CONFIG, 0), CONFIG, **kwargs)

    def test_empty_dataset(self):
        with pytest.raises(ConfigError):
            train_network([], init_params(CONFIG, 0), CONFIG)

    def test_one_frame_sequence_rejected_before_anything_is_written(self, dataset, tmp_path):
        """Library callers hand sequences straight in, past the loaders' check."""
        one_frame = SkeletonSequence(frames=dataset[0].frames[:1], label=0, source="s.txt")
        with pytest.raises(InvalidInput, match=r"^s\.txt: cannot resample a sequence with "
                                               r"fewer than 2 frames$"):
            train_network(dataset + [one_frame], init_params(CONFIG, 0), CONFIG,
                          out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_monotone_descent_first_steps(self, tmp_path_factory):
        """Full-batch loss decreases over the first five updates for most
        seeds."""
        root = tmp_path_factory.mktemp("mono")
        write_synthetic_dataset(root, n_classes=2, train_per_class=5, n_frames=15,
                                seed=11)
        seqs = [resample(s, CONFIG.n_frames) for s in load_dhg(root, "train")]
        good = 0
        for seed in range(5):
            result = train_network(seqs, init_params(CONFIG, seed), CONFIG,
                                   epochs=5, batch_size=30, lr=0.01, seed=seed)
            losses = [r.mean_loss for r in result.epochs]
            good += all(b < a for a, b in zip(losses, losses[1:]))
        assert good >= 4

    def test_manifest_contents(self, dataset, tmp_path):
        result = train_network(dataset, init_params(CONFIG, 0), CONFIG, epochs=2,
                               batch_size=30, lr=0.01, seed=0, out_dir=tmp_path)
        manifest = result.manifest(config=CONFIG, seed=0, dataset_id="dhg14:train",
                                   n_sequences=len(dataset), total_wall_time_s=1.0)
        assert manifest["config"]["d_out_s"] == CONFIG.d_out_s
        assert (manifest["batch_size"], manifest["learning_rate"]) == (30, 0.01)
        assert len(manifest["epochs"]) == 2
        assert {"epoch", "mean_loss", "accuracy", "wall_time_s"} <= set(manifest["epochs"][0])
        assert manifest["dataset"]["id"] == "dhg14:train"
        assert "deterministic" not in manifest
        threads = manifest["threads"]
        assert "workers" not in threads
        assert threads["window_tables"] in (1, 2)
        assert isinstance(threads["blas_held"], bool)


class TestEvaluate:
    """`train_network`'s closing pass over the training set."""

    def test_matches_final_metrics(self, dataset):
        result = train_network(dataset, init_params(CONFIG, 0), CONFIG, epochs=2,
                               batch_size=30, lr=0.01, seed=0)
        probs = [forward(seq, result.params, CONFIG)[0] for seq in dataset]
        losses = [cross_entropy(p, seq.label) for p, seq in zip(probs, dataset)]
        hits = sum(int(np.argmax(p)) == seq.label for p, seq in zip(probs, dataset))
        assert result.final_loss == float(np.mean(losses))
        assert result.final_accuracy == hits / len(dataset)

    def test_one_frame_sequence_named_once(self):
        """Checked before the passes, whose failures `errors.named` prefixes
        with the file again; with no epoch, the closing pass is the first."""
        one_frame = SkeletonSequence(frames=np.zeros((1, 20, 3)), label=0, source="seqs/a.txt")
        with pytest.raises(InvalidInput) as info:
            train_network([one_frame], init_params(CONFIG, 0), CONFIG, epochs=0)
        assert str(info.value) == "seqs/a.txt: cannot resample a sequence with fewer than 2 frames"


def test_paper_scale_batch_peak_memory():
    """One batch of two paper-scale sequences stays under a traced peak of
    42 MB above entry; holding each item's gradient set apart from the
    batch total took 51 MB."""
    config = NetworkConfig(n_classes=14).validate()
    rng = np.random.default_rng(0)
    seqs = [SkeletonSequence(frames=rng.standard_normal((500, 20, 3)), label=label)
            for label in (0, 5)]
    params = init_params(config, 0)
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        train_network(seqs, params, config, epochs=1, batch_size=2)
        peak = tracemalloc.get_traced_memory()[1] - entry
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= 42e6, f"peak {peak / 1e6:.1f} MB above entry"
