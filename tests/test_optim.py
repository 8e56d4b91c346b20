import re
import struct

import numpy as np
import pytest

from spdhgr.errors import ConfigError, InvalidInput, NumericalFailure
from spdhgr.optim import (
    euclid_sgd_step,
    load_checkpoint,
    project_tangent,
    save_checkpoint,
    stiefel_error,
    stiefel_init,
    stiefel_step,
)
from test_symmat import householder


class TestEuclidSgd:
    def test_zero_gradient(self, rng):
        p = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(euclid_sgd_step(p, np.zeros_like(p), 0.1), p)

    def test_scalar_example(self):
        out = euclid_sgd_step(np.array([1.0]), np.array([2.0]), 0.01)
        assert out[0] == pytest.approx(0.98)

    def test_quadratic_convergence(self, rng):
        # f(x) = 0.5 (x - m)^T A (x - m) with SPD A
        a = np.array([[3.0, 0.5, 0.0], [0.5, 2.0, 0.3], [0.0, 0.3, 1.0]])
        m = np.array([1.0, -2.0, 0.5])
        x = np.zeros(3)
        for _ in range(10**4):
            x = euclid_sgd_step(x, a @ (x - m), 0.05)
        assert np.linalg.norm(x - m) < 1e-6

    def test_non_finite_gradient(self):
        with pytest.raises(NumericalFailure):
            euclid_sgd_step(np.zeros(2), np.array([np.inf, 0.0]), 0.1)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            euclid_sgd_step(np.zeros(2), np.zeros(3), 0.1)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf])
    def test_non_finite_lr_rejected_naming_it(self, lr):
        with pytest.raises(InvalidInput, match=f"lr must be finite, got {lr}"):
            euclid_sgd_step(np.zeros(2), np.ones(2), lr)


class TestStiefelInit:
    def test_square_orthogonal(self):
        w = stiefel_init(3, 3, seed=0)
        assert np.linalg.norm(w @ w.T - np.eye(3)) < 1e-12

    def test_deterministic(self):
        assert np.array_equal(stiefel_init(5, 20, seed=7), stiefel_init(5, 20, seed=7))

    def test_orthonormal_rows(self):
        for seed in range(5):
            w = stiefel_init(5, 20, seed=seed)
            assert stiefel_error(w) <= 1e-10

    def test_rows_exceed_cols(self):
        with pytest.raises(InvalidInput):
            stiefel_init(10, 5, seed=0)

    @pytest.mark.parametrize("rows", [0, -1])
    def test_no_rows_rejected_naming_the_shape(self, rows):
        with pytest.raises(InvalidInput, match=f"need 1 <= rows <= cols, got {rows}x5"):
            stiefel_init(rows, 5, seed=0)

    def test_paper_scale_draw_is_cholesky_qr2_and_matches_householder(self,
                                                                       householder_calls):
        w = stiefel_init(200, 3360, seed=0)
        assert householder_calls == []
        want = householder(np.random.default_rng(0).standard_normal((200, 3360)))
        assert np.max(np.abs(w - want)) <= 1e-15
        assert stiefel_error(w) <= stiefel_error(want)


class TestStiefelStep:
    def test_zero_gradient_fixed_point(self):
        w = stiefel_init(4, 9, seed=1)
        out = stiefel_step(w, np.zeros_like(w), 0.01)
        assert np.max(np.abs(out - w)) <= 1e-12

    def test_normal_space_gradient_is_noop(self, rng):
        w = stiefel_init(4, 9, seed=2)
        u = rng.standard_normal(4)
        egrad = np.outer(u, u) @ w  # symmetric S @ W lies in the normal space
        assert np.linalg.norm(project_tangent(w, egrad)) <= 1e-12
        out = stiefel_step(w, egrad, 0.01)
        assert np.max(np.abs(out - w)) <= 1e-10

    def test_step_keeps_orthonormal_and_descends(self, rng):
        target = rng.standard_normal((3, 8))
        w = stiefel_init(3, 8, seed=3)
        losses = [0.5 * np.sum((w - target) ** 2)]
        for _ in range(10):
            w = stiefel_step(w, w - target, 0.01)
            assert stiefel_error(w) <= 1e-10
            losses.append(0.5 * np.sum((w - target) ** 2))
        assert all(b < a for a, b in zip(losses, losses[1:]))

    def test_many_random_steps_no_drift(self, rng):
        w = stiefel_init(6, 30, seed=4)
        for _ in range(200):
            w = stiefel_step(w, rng.standard_normal(w.shape), 0.01)
        assert stiefel_error(w) <= 1e-8

    def test_step_size_scaling(self, rng):
        w = stiefel_init(4, 12, seed=5)
        egrad = rng.standard_normal(w.shape)
        tangent_norm = np.linalg.norm(project_tangent(w, egrad))
        ratios = []
        for lr in (1e-2, 1e-4, 1e-6):
            out = stiefel_step(w, egrad, lr)
            ratios.append(np.linalg.norm(out - w) / lr)
        for r in ratios:
            assert 0.5 * tangent_norm <= r <= 1.5 * tangent_norm

    def test_projection_idempotent(self, rng):
        w = stiefel_init(4, 12, seed=6)
        t = project_tangent(w, rng.standard_normal(w.shape))
        assert np.max(np.abs(project_tangent(w, t) - t)) <= 1e-12

    def test_shape_mismatch(self):
        w = stiefel_init(2, 4, seed=0)
        with pytest.raises(InvalidInput,
                           match=r"^shape mismatch: weight \(2, 4\) vs grad \(4, 2\)$"):
            stiefel_step(w, np.ones((4, 2)), 0.01)

    def test_non_finite_gradient(self):
        w = stiefel_init(2, 4, seed=0)
        bad = np.full(w.shape, np.nan)
        with pytest.raises(NumericalFailure):
            stiefel_step(w, bad, 0.01)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -np.inf])
    def test_non_finite_lr_rejected_naming_it(self, lr):
        w = stiefel_init(2, 4, seed=0)
        with pytest.raises(InvalidInput, match=f"lr must be finite, got {lr}"):
            stiefel_step(w, np.ones_like(w), lr)

    def test_paper_scale_retraction_is_cholesky_qr2_and_matches_householder(
            self, householder_calls):
        w = stiefel_init(200, 3360, seed=1)
        egrad = np.random.default_rng(2).standard_normal(w.shape)
        householder_calls.clear()
        out = stiefel_step(w, egrad, 0.01)
        assert householder_calls == []
        want = householder(w - 0.01 * project_tangent(w, egrad))
        assert np.max(np.abs(out - want)) <= 1e-15
        assert stiefel_error(out) <= stiefel_error(want)


class TestCheckpointIo:
    def test_roundtrip_bitwise(self, tmp_path, rng):
        tensors = {
            "a": rng.standard_normal((3, 4, 2)),
            "b_vector": rng.standard_normal(7),
            "scalar": np.array(3.25),
        }
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, tensors)
        loaded = load_checkpoint(path)
        assert set(loaded) == set(tensors)
        for name in tensors:
            assert np.array_equal(loaded[name], tensors[name])
            assert loaded[name].shape == tensors[name].shape

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\0" * 16)
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_truncated(self, tmp_path, rng):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, {"a": rng.standard_normal((4, 4))})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 9])
        with pytest.raises(ConfigError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_strided_and_integer_tensors_roundtrip(self, tmp_path, rng):
        base = rng.standard_normal((4, 6))
        tensors = {"fortran": np.asfortranarray(base), "transposed": base.T,
                   "strided": base[:, ::2], "ints": np.arange(5), "empty": np.zeros((0, 3))}
        save_checkpoint(tmp_path / "t.ckpt", tensors)
        loaded = load_checkpoint(tmp_path / "t.ckpt")
        for name, tensor in tensors.items():
            assert loaded[name].dtype == np.float64
            assert loaded[name].flags.c_contiguous
            assert np.array_equal(loaded[name], tensor)

    @staticmethod
    def _container(*entries, count=None):
        """Hand-built container bytes from (name bytes, dims, payload) entries."""
        out = b"SPDHGRCK" + struct.pack("<II", 1, len(entries) if count is None else count)
        for name, dims, payload in entries:
            out += struct.pack(f"<H{len(name)}sB{len(dims)}Q", len(name), name,
                               len(dims), *dims)
            out += payload
        return out

    @pytest.mark.parametrize("entries, message", [
        # element count overflows int64
        ([(b"a", (2**40, 2**40), b"")], "needs"),
        # a declared payload of 64 GiB in a tiny file
        ([(b"a", (2**33,), b"\0" * 16)], "needs"),
        # a zero-size tensor whose dims numpy cannot allocate
        ([(b"a", (2**64 - 1, 0), b"")], "bad shape"),
        ([(b"\xff\xfe", (1,), b"\0" * 8)], "UTF-8"),
        ([(b"a", (1,), b"\0" * 8), (b"a", (1,), b"\0" * 8)], "twice"),
        ([(b"a", (1,), b"\0" * 16)], "follow the last tensor"),
    ])
    def test_malformed_header(self, tmp_path, entries, message):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(self._container(*entries))
        with pytest.raises(ConfigError, match=message) as exc:
            load_checkpoint(path)
        assert "bad.ckpt" in str(exc.value)

    def test_count_beyond_tensors(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(self._container((b"a", (1,), b"\0" * 8), count=2**32 - 1))
        with pytest.raises(ConfigError, match="truncated"):
            load_checkpoint(path)

    def test_failed_write_keeps_previous_file(self, tmp_path, rng):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, {"a": rng.standard_normal((3, 3))})
        before = path.read_bytes()

        class Unwritable:
            def __array__(self, dtype=None, copy=None):
                raise RuntimeError("disk gone")

        with pytest.raises(RuntimeError, match="disk gone"):
            save_checkpoint(path, {"a": rng.standard_normal((50, 50)), "b": Unwritable()})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.ckpt"]

    def test_rename_failure_is_config_error(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()  # the rename onto a directory fails
        with pytest.raises(ConfigError, match=re.escape(f"cannot write {target}")):
            save_checkpoint(target, {"a": np.ones(3)})
        assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]

    def test_write_replaces_previous_file(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, {"a": np.ones(100)})
        save_checkpoint(path, {"b": np.zeros(2)})
        assert list(load_checkpoint(path)) == ["b"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.ckpt"]
