import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spdhgr.errors import ConfigError, InvalidInput, ParseError
from spdhgr.network import NetworkConfig, forward, init_params
from spdhgr.skeleton import (
    GRID_NODE_IDS,
    N_BRANCHES,
    OFFSET_LABELS,
    SkeletonSequence,
    build_branch_plan,
    finger_joints,
    grid_neighbors,
    load_dhg,
    load_fpha,
    node_finger_level,
    resample,
    split_range,
    write_synthetic_dataset,
)

OFFSET_TO_LABEL = dict(OFFSET_LABELS)


class TestGrid:
    def test_node12_full_neighbours(self):
        pairs = grid_neighbors("full", 12)
        assert {j for j, _ in pairs} == {7, 8, 9, 11, 12, 13, 15, 16, 17}
        for j, label in pairs:
            assert label == OFFSET_TO_LABEL[j - 12]

    def test_corner_node3(self):
        assert set(grid_neighbors("full", 3)) == {(3, 1), (4, 4), (7, 2), (8, 3)}

    def test_node12_physical(self):
        assert set(grid_neighbors("physical", 12)) == {(11, 8), (12, 1), (13, 4)}

    def test_self_always_included(self):
        for mode in ("full", "physical"):
            for node in GRID_NODE_IDS:
                assert (node, 1) in grid_neighbors(mode, node)

    def test_all_nodes_valid_labels_and_offsets(self):
        for node in GRID_NODE_IDS:
            for j, label in grid_neighbors("full", node):
                assert j in GRID_NODE_IDS
                assert 1 <= label <= 9
                assert OFFSET_TO_LABEL[j - node] == label
                # neighbours stay within one finger and one level step
                fi, li = node_finger_level(node)
                fj, lj = node_finger_level(j)
                assert abs(fi - fj) <= 1 and abs(li - lj) <= 1

    def test_physical_same_finger(self):
        for node in GRID_NODE_IDS:
            fi, _ = node_finger_level(node)
            for j, _ in grid_neighbors("physical", node):
                assert node_finger_level(j)[0] == fi
                assert j in (node - 1, node, node + 1)

    def test_unknown_node(self):
        with pytest.raises(InvalidInput):
            grid_neighbors("full", 2)

    def test_bad_mode(self):
        with pytest.raises(InvalidInput):
            grid_neighbors("diagonal", 12)

    def test_finger_joints(self):
        assert finger_joints(1) == (3, 4, 5, 6)
        assert finger_joints(5) == (19, 20, 21, 22)
        with pytest.raises(InvalidInput):
            finger_joints(6)


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
                               subject=7, source="x.txt")
        out = resample(seq, 8)
        assert (out.label, out.subject, out.source) == (3, 7, "x.txt")


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
            assert joints == tuple(GRID_NODE_IDS.index(j) for j in finger_joints(finger + 1))

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
        assert (seq.label, seq.subject) == (2**53, -(2**53))

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

    def test_loso_split(self, tmp_path):
        write_synthetic_dataset(tmp_path, n_classes=2, train_per_class=3,
                                test_per_class=3, n_frames=5)
        all_subjects = {s.subject for s in load_dhg(tmp_path, "train")}
        assert all_subjects == {1, 2, 3}
        held = load_dhg(tmp_path, "loso-test:2")
        rest = load_dhg(tmp_path, "loso-train:2")
        assert {s.subject for s in held} == {2}
        assert 2 not in {s.subject for s in rest}
        assert len(held) + len(rest) == 12

    def test_bad_split_name(self, tmp_path):
        write_synthetic_dataset(tmp_path, n_classes=2, train_per_class=1, n_frames=5)
        with pytest.raises(ConfigError):
            load_dhg(tmp_path, "validation")


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
