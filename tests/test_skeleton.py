import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdhgr import skeleton
from spdhgr.errors import ConfigError, InvalidInput, ParseError
from spdhgr.network import NetworkConfig, forward, init_params
from spdhgr.skeleton import (
    N_BRANCHES,
    SkeletonSequence,
    build_branch_plan,
    grid_neighbors,
    load_dhg,
    load_fpha,
    resample,
    split_range,
    write_synthetic_dataset,
)

# Each filter's (finger step, level step), written out by hand in
# conv_weights order, so that the tests do not read the table under test.
STEPS = {0: (0, 0), 1: (1, 0), 2: (1, 1), 3: (0, 1), 4: (-1, 1),
         5: (-1, 0), 6: (-1, -1), 7: (0, -1), 8: (1, -1)}


def neighbours_of(mode, node):
    """The (neighbour, filter) pairs of one lattice position."""
    return {(int(j), int(k)) for i, j, k in grid_neighbors(mode) if i == node}


class TestGrid:
    def test_node9_full_neighbours(self):
        # node 9 is finger 2, level 1 (DHG joint 12): all nine steps stay on the lattice
        assert neighbours_of("full", 9) == {(9, 0), (13, 1), (14, 2), (10, 3), (6, 4),
                                            (5, 5), (4, 6), (8, 7), (12, 8)}

    def test_corner_node0(self):
        assert neighbours_of("full", 0) == {(0, 0), (1, 3), (4, 1), (5, 2)}

    def test_node9_physical(self):
        assert neighbours_of("physical", 9) == {(8, 7), (9, 0), (10, 3)}

    def test_self_always_included(self):
        for mode in ("full", "physical"):
            for node in range(20):
                assert (node, 0) in neighbours_of(mode, node)

    def test_all_nodes_valid_labels_and_offsets(self):
        rows = grid_neighbors("full")
        assert {int(i) for i in rows[:, 0]} == set(range(20))
        for node, j, k in rows:
            assert 0 <= j < 20
            assert 0 <= k < 9
            # neighbours stay within one finger and one level step: the filter's
            fi, li = divmod(node, 4)
            fj, lj = divmod(j, 4)
            assert (fj - fi, lj - li) == STEPS[k]
        # every step that stays on the lattice is an edge
        assert len(rows) == sum(0 <= f + df < 5 and 0 <= level + dl < 4
                                for f in range(5) for level in range(4)
                                for df, dl in STEPS.values())

    def test_physical_same_finger(self):
        for node, j, _ in grid_neighbors("physical"):
            assert j // 4 == node // 4
            assert j in (node - 1, node, node + 1)

    def test_bad_mode(self):
        with pytest.raises(InvalidInput):
            grid_neighbors("diagonal")

    def test_finger_joints(self):
        fingers = [joints for _, _, joints in build_branch_plan(6)[:5]]
        assert fingers[0] == (0, 1, 2, 3)
        assert fingers[4] == (16, 17, 18, 19)
        assert {joints for _, _, joints in build_branch_plan(6)} == set(fingers)

    def test_table_is_cached_and_read_only(self):
        rows = grid_neighbors("full")
        assert grid_neighbors("full") is rows
        with pytest.raises(ValueError):
            rows[0, 0] = 1


class TestResample:
    def _seq(self, frames):
        return SkeletonSequence(frames=np.asarray(frames, dtype=float), label=0)

    def test_linear_midpoint(self):
        seq = self._seq([np.zeros((22, 3)), np.ones((22, 3))])
        out = resample(seq, 3)
        np.testing.assert_allclose(out.frames[1], 0.5)
        np.testing.assert_array_equal(out.frames[0], seq.frames[0])
        np.testing.assert_array_equal(out.frames[2], seq.frames[1])

    def test_identity_when_same_length(self, rng):
        seq = self._seq(rng.standard_normal((9, 22, 3)))
        out = resample(seq, 9)
        np.testing.assert_allclose(out.frames, seq.frames, atol=1e-12)

    def test_idempotent_bitwise(self, rng):
        seq = self._seq(rng.standard_normal((7, 22, 3)))
        once = resample(seq, 20)
        twice = resample(once, 20)
        assert np.array_equal(once.frames, twice.frames)

    def test_convexity(self, rng):
        seq = self._seq(rng.standard_normal((7, 22, 3)))
        out = resample(seq, 500)
        flat_in = seq.frames.reshape(7, -1)
        flat_out = out.frames.reshape(500, -1)
        assert np.all(flat_out.max(axis=0) <= flat_in.max(axis=0) + 1e-12)
        assert np.all(flat_out.min(axis=0) >= flat_in.min(axis=0) - 1e-12)

    def test_single_frame_rejected(self):
        with pytest.raises(InvalidInput):
            resample(self._seq(np.zeros((1, 22, 3))), 5)

    def test_fewer_than_two_output_frames_rejected(self, rng):
        with pytest.raises(InvalidInput, match="^n_frames must be >= 2, got 1$"):
            resample(self._seq(rng.standard_normal((4, 22, 3))), 1)

    def test_single_frame_names_its_file(self):
        seq = SkeletonSequence(frames=np.zeros((1, 22, 3)), label=0, source="seq/a.txt")
        with pytest.raises(InvalidInput, match=r"^seq/a\.txt: cannot resample a sequence "
                                               r"with fewer than 2 frames$"):
            resample(seq, 5)

    @staticmethod
    def _interp_loop(frames, n_frames):
        """The per-column ``np.interp`` loop that resample replaces: its reference."""
        src_t = np.linspace(0.0, 1.0, frames.shape[0])
        dst_t = np.linspace(0.0, 1.0, n_frames)
        flat = frames.reshape(frames.shape[0], -1)
        out = np.empty((n_frames, flat.shape[1]))
        for c in range(flat.shape[1]):
            out[:, c] = np.interp(dst_t, src_t, flat[:, c])
        return out.reshape(n_frames, -1, 3)

    @given(st.integers(2, 600), st.integers(2, 600), st.booleans(), st.integers(0, 2**32 - 1),
           st.sampled_from([0.0, 0.02, 0.3]))
    def test_bitwise_equal_to_per_column_interp(self, n_src, n_dst, same, seed, extreme):
        """Where the per-column np.interp result is finite, resample's is the
        same bits; where it is not, resample refuses the sequence."""
        n_dst = n_src if same else n_dst
        rng = np.random.default_rng(seed)
        frames = rng.standard_normal((n_src, 22, 3)) * 10.0 ** rng.integers(-6, 6)
        # +-1e308 overflows the slopes, and +-inf makes np.interp's own NaN retry run
        odd = rng.random(frames.shape) < extreme
        frames[odd] = rng.choice([1e308, -1e308, np.inf, -np.inf, np.nan, -0.0], size=odd.sum())
        want = self._interp_loop(frames, n_dst)
        if not np.isfinite(want).all():
            with pytest.raises(InvalidInput, match=f"^resampling {n_src} frames to {n_dst} "
                                                   "forms non-finite coordinates$"):
                resample(self._seq(frames), n_dst)
            return
        got = resample(self._seq(frames), n_dst).frames
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_preserves_metadata(self, rng):
        seq = SkeletonSequence(frames=rng.standard_normal((4, 22, 3)), label=3,
                               source="x.txt")
        out = resample(seq, 8)
        assert (out.label, out.source) == (3, "x.txt")


class TestBranchPlan:
    def test_canonical_500(self):
        plan = build_branch_plan(500)
        ranges = [(start, stop) for start, stop, _ in plan[::5]]
        assert ranges == [(0, 500), (0, 250), (250, 500), (0, 166), (166, 333), (333, 500)]

    def test_six_frames(self):
        plan = build_branch_plan(6)
        thirds = [(start, stop) for start, stop, _ in plan[15:]]
        assert thirds[::5] == [(0, 2), (2, 4), (4, 6)]

    def test_thirty_entries_order(self):
        plan = build_branch_plan(30)
        assert len(plan) == N_BRANCHES == 30
        # sub-sequence-major, then finger: the finger cycles fastest
        for k, (start, stop, joints) in enumerate(plan):
            sub_seq, finger = divmod(k, 5)
            assert (start, stop) == plan[5 * sub_seq][:2]
            assert joints == tuple(range(4 * finger, 4 * finger + 4))

    @given(st.integers(min_value=6, max_value=2000))
    def test_partition_property(self, n):
        by_s = [(start, stop) for start, stop, _ in build_branch_plan(n)[::5]]
        assert by_s[0] == (0, n)
        for group in (by_s[1:3], by_s[3:6]):
            covered = []
            for lo, hi in group:
                covered.extend(range(lo, hi))
            assert covered == list(range(n))
            sizes = [hi - lo for lo, hi in group]
            assert max(sizes) - min(sizes) <= 1

    def test_too_short(self):
        with pytest.raises(InvalidInput):
            build_branch_plan(5)

    def test_split_range_remainder_last(self):
        assert split_range(7, 3) == [(0, 2), (2, 4), (4, 7)]
        assert split_range(501, 2) == [(0, 250), (250, 501)]

    def test_split_range_more_parts_than_frames(self):
        with pytest.raises(InvalidInput, match="^cannot split 3 frames into 4 parts$"):
            split_range(3, 4)


class TestDhgLoader:
    def test_counts_and_labels(self, tmp_path):
        write_synthetic_dataset(tmp_path, n_classes=2, train_per_class=2,
                                test_per_class=1, n_frames=5, seed=1)
        train = load_dhg(tmp_path, "train")
        test = load_dhg(tmp_path, "test")
        assert len(train) == 4 and len(test) == 2
        assert sorted(s.label for s in train) == [0, 0, 1, 1]
        assert all(s.frames.shape == (5, 20, 3) for s in train)
        assert all(s.n_frames == 5 for s in train)

    def test_order_lexicographic(self, tmp_path):
        write_synthetic_dataset(tmp_path, n_classes=3, train_per_class=2, n_frames=5)
        train = load_dhg(tmp_path, "train")
        assert [s.source for s in train] == sorted(s.source for s in train)

    def test_zero_file(self, tmp_path):
        (tmp_path / "sequences").mkdir(parents=True)
        with open(tmp_path / "sequences" / "a.txt", "w") as fh:
            for _ in range(3):
                fh.write(" ".join(["0.0"] * 66) + "\n")
        (tmp_path / "train.txt").write_text("sequences/a.txt 0 0 1\n")
        (seq,) = load_dhg(tmp_path, "train")
        assert seq.n_frames == 3
        np.testing.assert_array_equal(seq.frames, 0.0)

    def test_malformed_line_names_location(self, tmp_path):
        (tmp_path / "sequences").mkdir(parents=True)
        with open(tmp_path / "sequences" / "bad.txt", "w") as fh:
            fh.write(" ".join(["0.0"] * 66) + "\n")
            fh.write(" ".join(["0.0"] * 65) + "\n")
        (tmp_path / "train.txt").write_text("sequences/bad.txt 0 0 1\n")
        with pytest.raises(ParseError, match=r"bad\.txt:2"):
            load_dhg(tmp_path, "train")

    def test_non_numeric_token(self, tmp_path):
        (tmp_path / "sequences").mkdir(parents=True)
        (tmp_path / "sequences" / "bad.txt").write_text(" ".join(["x"] * 66) + "\n")
        (tmp_path / "train.txt").write_text("sequences/bad.txt 0 0 1\n")
        with pytest.raises(ParseError, match=r"bad\.txt:1"):
            load_dhg(tmp_path, "train")

    @pytest.mark.parametrize("field", (2**53 + 1, -(2**53) - 1, 2**63, 10**30))
    @pytest.mark.parametrize("column", (1, 2, 3))
    def test_field_beyond_float64_range_names_location(self, tmp_path, field, column):
        """A feature file stores labels as float64, exact up to 2**53 in
        magnitude; a larger index field is a parse error at its line."""
        (tmp_path / "sequences").mkdir(parents=True)
        (tmp_path / "sequences" / "a.txt").write_text(" ".join(["0.0"] * 66) + "\n")
        fields = ["0", "0", "1"]
        fields[column - 1] = str(field)
        (tmp_path / "train.txt").write_text("sequences/a.txt 0 0 1\n"
                                            f"sequences/a.txt {' '.join(fields)}\n")
        with pytest.raises(ParseError, match=r"train\.txt:2: integer field beyond"):
            load_dhg(tmp_path, "train")

    def test_field_at_float64_limit_accepted(self, tmp_path):
        (tmp_path / "sequences").mkdir(parents=True)
        (tmp_path / "sequences" / "a.txt").write_text((" ".join(["0.0"] * 66) + "\n") * 2)
        (tmp_path / "train.txt").write_text(f"sequences/a.txt {2**53} 0 {-(2**53)}\n")
        (seq,) = load_dhg(tmp_path, "train")
        assert seq.label == 2**53

    def test_missing_split_file(self, tmp_path):
        write_synthetic_dataset(tmp_path, n_classes=2, train_per_class=1, n_frames=5)
        (tmp_path / "test.txt").unlink()
        with pytest.raises(ConfigError):
            load_dhg(tmp_path, "test")

    def test_missing_root(self, tmp_path):
        with pytest.raises(ConfigError):
            load_dhg(tmp_path / "nope", "train")

    def test_crlf_accepted(self, tmp_path):
        (tmp_path / "sequences").mkdir(parents=True)
        with open(tmp_path / "sequences" / "a.txt", "w", newline="") as fh:
            fh.write(" ".join(["1.0"] * 66) + "\r\n")
            fh.write(" ".join(["2.0"] * 66) + "\r\n")
        with open(tmp_path / "train.txt", "w", newline="") as fh:
            fh.write("sequences/a.txt 0 0 1\r\n")
        (seq,) = load_dhg(tmp_path, "train")
        assert seq.n_frames == 2

    def test_label28_column(self, tmp_path):
        (tmp_path / "sequences").mkdir(parents=True)
        (tmp_path / "sequences" / "a.txt").write_text((" ".join(["0.0"] * 66) + "\n") * 2)
        (tmp_path / "train.txt").write_text("sequences/a.txt 3 17 2\n")
        assert load_dhg(tmp_path, "train", classes=14)[0].label == 3
        assert load_dhg(tmp_path, "train", classes=28)[0].label == 17

    def test_other_class_count_rejected(self, tmp_path):
        write_synthetic_dataset(tmp_path, n_classes=2, train_per_class=1, n_frames=5)
        with pytest.raises(ConfigError, match="^classes must be 14 or 28, got 21$"):
            load_dhg(tmp_path, "train", classes=21)

    def test_blank_index_line_skipped(self, tmp_path):
        (tmp_path / "sequences").mkdir(parents=True)
        for name in ("a", "b"):
            (tmp_path / "sequences" / f"{name}.txt").write_text(
                (" ".join(["0.0"] * 66) + "\n") * 2)
        (tmp_path / "train.txt").write_text("sequences/a.txt 0 0 1\n\n"
                                            "sequences/b.txt 1 1 2\n")
        train = load_dhg(tmp_path, "train")
        assert [(s.source, s.label) for s in train] == [("sequences/a.txt", 0),
                                                        ("sequences/b.txt", 1)]

    def test_bad_split_name(self, tmp_path):
        """A split is one of the two index files; no other name selects
        sequences, the old leave-one-subject-out names included."""
        write_synthetic_dataset(tmp_path, n_classes=2, train_per_class=1,
                                test_per_class=1, n_frames=5)
        for split in ("validation", "loso-test:2", "loso-train:2"):
            with pytest.raises(ConfigError,
                               match=f"^unknown split '{split}'; expected train or test$"):
                load_dhg(tmp_path, split)


class TestFphaLoader:
    def _write(self, root, name, frames_tokens, label=0, subject=1):
        (root / "sequences").mkdir(parents=True, exist_ok=True)
        (root / "sequences" / name).write_text(
            "".join(" ".join(t) + "\n" for t in frames_tokens)
        )
        index = root / "train.txt"
        prev = index.read_text() if index.is_file() else ""
        index.write_text(prev + f"sequences/{name} {label} {subject}\n")
        (root / "test.txt").write_text("")

    def test_frame_index_stripped(self, tmp_path, rng):
        rows = []
        for idx in (0, 1):
            rows.append([str(idx)] + [f"{v:.6f}" for v in rng.standard_normal(63)])
        self._write(tmp_path, "a.txt", rows)
        (seq,) = load_fpha(tmp_path, "train")
        assert seq.frames.shape == (2, 20, 3)  # frame index and wrist dropped

    def test_wrist_dropped_values(self, tmp_path):
        row = ["7"] + [str(float(k)) for k in range(63)]
        self._write(tmp_path, "a.txt", [row, row])
        (seq,) = load_fpha(tmp_path, "train")
        # first stored joint is the dataset's second (x=3.0)
        np.testing.assert_array_equal(seq.frames[0, 0], [3.0, 4.0, 5.0])

    def test_non_monotonic_index_accepted(self, tmp_path):
        rows = [["5"] + ["1.0"] * 63, ["2"] + ["2.0"] * 63]
        self._write(tmp_path, "a.txt", rows)
        (seq,) = load_fpha(tmp_path, "train")
        np.testing.assert_array_equal(seq.frames[0], 1.0)
        np.testing.assert_array_equal(seq.frames[1], 2.0)

    def test_partition_sizes(self, tmp_path, rng):
        for k in range(5):
            rows = [[str(t)] + [f"{v:.4f}" for v in rng.standard_normal(63)]
                    for t in range(3)]
            self._write(tmp_path, f"s{k}.txt", rows, label=k % 2)
        (tmp_path / "test.txt").write_text("")
        train = load_fpha(tmp_path, "train")
        test = load_fpha(tmp_path, "test")
        assert len(train) == 5 and len(test) == 0
        assert sorted(s.label for s in train) == [0, 0, 0, 1, 1]


class TestGridCoords:
    def test_drops_wrist_and_palm(self, tmp_path, rng):
        """A DHG load keeps exactly file columns 7-66 (joints 3-22), bitwise."""
        values = rng.standard_normal((4, 66))
        (tmp_path / "sequences").mkdir(parents=True)
        (tmp_path / "sequences" / "a.txt").write_text(
            "".join(" ".join(map(repr, row)) + "\n" for row in values.tolist()))
        (tmp_path / "train.txt").write_text("sequences/a.txt 0 0 1\n")
        (seq,) = load_dhg(tmp_path, "train")
        assert seq.frames.shape == (4, 20, 3)
        assert seq.frames.tobytes() == values[:, 6:].tobytes()

    def test_other_joint_counts_rejected(self, rng):
        """The network reads the 20 lattice nodes and nothing else."""
        config = NetworkConfig(n_classes=2, d_out_c=2, d_out_s=8, n_frames=12, t0=1,
                               n_chunks=2)
        params = init_params(config, 0)
        for joints in (21, 22):
            seq = SkeletonSequence(frames=rng.standard_normal((12, joints, 3)), label=0)
            with pytest.raises(InvalidInput, match=rf"coords must be \(n_frames, 20, 3\), "
                                                   rf"got \(12, {joints}, 3\)"):
                forward(seq, params, config)


@pytest.mark.parametrize("load, n_values", [(load_dhg, 66), (load_fpha, 64)],
                         ids=["dhg", "fpha"])
def test_one_frame_file_is_refused_naming_it(tmp_path, load, n_values):
    (tmp_path / "sequences").mkdir(parents=True)
    for name, n_frames in (("a.txt", 2), ("b.txt", 1)):
        (tmp_path / "sequences" / name).write_text((" ".join(["1.0"] * n_values) + "\n")
                                                   * n_frames)
    fields = "0 0 1" if load is load_dhg else "0 1"
    (tmp_path / "train.txt").write_text(f"sequences/a.txt {fields}\n"
                                        f"sequences/b.txt {fields}\n")
    with pytest.raises(InvalidInput, match=r"^sequences/b\.txt: cannot resample a sequence "
                                           r"with fewer than 2 frames$"):
        load(tmp_path, "train")


def synthetic_frames_per_node(cls, n_frames, rng):
    """The synthetic fixture's sequence written joint by joint in DHG ids
    (joint j at index j - 1), the form before the lattice view, as an oracle."""
    frames = np.zeros((n_frames, 22, 3))
    frames[:, 1, 2] = 0.4
    for f in range(1, 6):
        for level in range(1, 5):
            node = 3 + 4 * (f - 1) + level - 1
            frames[:, node - 1, 0] = 0.3 * (f - 3)
            frames[:, node - 1, 2] = 0.4 + 0.25 * level
    moving = cls % 5 + 1
    freq = 1.0 + 0.8 * (cls // 5) + 0.35 * cls
    scale = 0.4 * 4.0 ** (cls % 3)
    t = np.linspace(0.0, 2.0 * np.pi * freq, n_frames)
    direction = 1.0 if cls % 2 == 0 else -1.0
    for level in range(1, 5):
        node = 3 + 4 * (moving - 1) + level - 1
        sway = scale * level / 4
        frames[:, node - 1, 0] += sway * np.sin(t + 0.4 * level)
        frames[:, node - 1, 1] += direction * sway * np.cos(t)
    frames += rng.normal(scale=0.02 * scale, size=frames.shape)
    return frames


def test_synthetic_dataset_matches_per_node_loop(tmp_path, monkeypatch):
    """The overfit oracle, the probes and the tree comparison read this
    fixture: every class's frames keep their bits, and its files their bytes."""
    for cls in range(14):
        np.testing.assert_array_equal(
            skeleton._synthetic_frames(cls, 23, np.random.default_rng(cls)),
            synthetic_frames_per_node(cls, 23, np.random.default_rng(cls)), strict=True)
    sizes = dict(n_classes=14, train_per_class=2, test_per_class=1, n_frames=23, seed=7)
    write_synthetic_dataset(tmp_path / "lattice", **sizes)
    monkeypatch.setattr(skeleton, "_synthetic_frames", synthetic_frames_per_node)
    write_synthetic_dataset(tmp_path / "per_node", **sizes)
    files = sorted(path.relative_to(tmp_path / "per_node")
                   for path in (tmp_path / "per_node").rglob("*.txt"))
    assert len(files) == 14 * 3 + 2
    for rel in files:
        assert ((tmp_path / "lattice" / rel).read_bytes()
                == (tmp_path / "per_node" / rel).read_bytes())
