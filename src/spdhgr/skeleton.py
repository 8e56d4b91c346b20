"""Skeleton-sequence ingestion, the finger-joint lattice, and branch planning.

Hand joints are numbered 1..22 the way the DHG recordings ship them:
1 = wrist, 2 = palm, then four joints per finger from base to tip
(thumb 3-6, index 7-10, middle 11-14, ring 15-18, pinky 19-22).
Nodes 3..22 form a 5x4 lattice (finger x level) on which the grid
convolution operates. A loaded sequence keeps only these 20 nodes: the
values before them on each line (DHG's wrist and palm, FPHA's frame
index and wrist) are parsed, checked and dropped.

Dataset layout (see docs/formats.md for the exact grammar): a root
directory with index files ``train.txt``/``test.txt`` where each line
names a per-sequence skeleton file plus its labels, and plain-text
skeleton files with one frame per line.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, InvalidInput, ParseError

N_FINGERS = 5
N_LEVELS = 4
N_GRID_NODES = N_FINGERS * N_LEVELS
GRID_NODE_IDS = tuple(range(3, 3 + N_GRID_NODES))

# Lattice offset (j - i) -> filter index, in canonical filter order.
# An offset o decomposes as o = 4*df + dl with df, dl in {-1, 0, 1}:
# df steps to the neighbouring finger, dl along the same finger.
OFFSET_LABELS = ((0, 1), (4, 2), (5, 3), (1, 4), (-3, 5), (-4, 6), (-5, 7), (-1, 8), (3, 9))
_OFFSET_STEPS = {4 * df + dl: (df, dl) for df in (-1, 0, 1) for dl in (-1, 0, 1)}
N_FILTERS = len(OFFSET_LABELS)
GRID_MODES = ("full", "physical")


def node_finger_level(node_id: int) -> tuple[int, int]:
    """Map a grid node id to (finger 1..5, level 1..4)."""
    if node_id not in GRID_NODE_IDS:
        raise InvalidInput(f"node {node_id} is not a grid node (expected 3..22)")
    k = node_id - 3
    return k // N_LEVELS + 1, k % N_LEVELS + 1


def finger_joints(finger: int) -> tuple[int, int, int, int]:
    """The four node ids of a finger, base to tip."""
    if not 1 <= finger <= N_FINGERS:
        raise InvalidInput(f"finger must be 1..{N_FINGERS}, got {finger}")
    base = 3 + N_LEVELS * (finger - 1)
    return tuple(range(base, base + N_LEVELS))


def grid_neighbors(mode: str, node_id: int) -> list[tuple[int, int]]:
    """Valid (neighbour node id, filter index) pairs for a node of the 5x4
    finger-joint lattice.

    ``full`` mode connects each node to its up-to-9 lattice neighbours;
    ``physical`` keeps only same-finger neighbours {i-1, i, i+1}. Offsets
    whose finger or level step leaves the lattice are excluded; the node
    itself is always present with filter index 1.
    """
    if mode not in GRID_MODES:
        raise InvalidInput(f"grid mode must be one of {GRID_MODES}, got {mode!r}")
    finger, level = node_finger_level(node_id)
    pairs = []
    for offset, label in OFFSET_LABELS:
        df, dl = _OFFSET_STEPS[offset]
        if mode == "physical" and df != 0:
            continue
        if 1 <= finger + df <= N_FINGERS and 1 <= level + dl <= N_LEVELS:
            pairs.append((node_id + offset, label))
    return pairs


# ---------------------------------------------------------------------------
# sequences


@dataclass
class SkeletonSequence:
    """Time-ordered 3-d joint coordinates for one gesture sample."""

    frames: np.ndarray  # (n_frames, 20, 3) float64: the lattice nodes 3..22 in order
    label: int
    subject: int | None = None
    source: str | None = None

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]


def check_resamplable(seq: SkeletonSequence) -> None:
    """Raise `resample`'s error for a sequence of fewer than 2 frames."""
    if seq.n_frames < 2:
        where = f"{seq.source}: " if seq.source else ""
        raise InvalidInput(f"{where}cannot resample a sequence with fewer than 2 frames")


def resample(seq: SkeletonSequence, n_frames: int) -> SkeletonSequence:
    """Linearly resample a sequence to ``n_frames`` uniformly spaced frames.

    Per joint and coordinate, piecewise-linear interpolation over [0, 1];
    the first and last frames are preserved exactly, and resampling an
    already-resampled sequence is a bitwise no-op. The result is
    ``np.interp`` of each column, bit for bit; one with a non-finite entry
    (frame differences that overflow) is refused.
    """
    if n_frames < 2:
        raise InvalidInput(f"n_frames must be >= 2, got {n_frames}")
    check_resamplable(seq)
    src_t = np.linspace(0.0, 1.0, seq.n_frames)
    dst_t = np.linspace(0.0, 1.0, n_frames)
    flat = seq.frames.reshape(seq.n_frames, -1)
    out = _interp_columns(dst_t, src_t, flat)
    if not np.isfinite(out).all():
        raise InvalidInput(f"resampling {seq.n_frames} frames to {n_frames} "
                           "forms non-finite coordinates")
    return SkeletonSequence(
        frames=out.reshape(n_frames, -1, 3),
        label=seq.label,
        subject=seq.subject,
        source=seq.source,
    )


def _interp_columns(x: np.ndarray, xp: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """``np.interp(x, xp, fp[:, c])`` for every column c, in one pass.

    ``x`` and ``xp`` both run from 0 to 1. The arithmetic is np.interp's
    own: ``j`` with ``xp[j] <= x < xp[j + 1]``, ``fp[j]`` where ``x`` hits
    ``xp[j]`` (the last frame included), else ``slope * (x - xp[j]) +
    fp[j]`` with ``slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j])``.
    """
    j = np.searchsorted(xp, x, side="right") - 1
    k = np.minimum(j, len(xp) - 2)
    with np.errstate(all="ignore"):
        slopes = (fp[1:] - fp[:-1]) / (xp[1:] - xp[:-1])[:, None]
        out = slopes[k] * (x - xp[k])[:, None] + fp[k]
    hit = xp[j] == x
    out[hit] = fp[j[hit]]
    return out


# ---------------------------------------------------------------------------
# branch plan


def split_range(n: int, parts: int) -> list[tuple[int, int]]:
    """Partition range(n) into ``parts`` contiguous half-open pieces.

    Piece lengths differ by at most one; the longer pieces come last.
    """
    if parts < 1 or n < parts:
        raise InvalidInput(f"cannot split {n} frames into {parts} parts")
    base, extra = divmod(n, parts)
    bounds = []
    start = 0
    for k in range(parts):
        size = base + (1 if k >= parts - extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


# sub-sequences of the branch plan: the whole sequence, its halves, its thirds
SUB_SEQUENCE_SPLITS = (1, 2, 3)
N_BRANCHES = sum(SUB_SEQUENCE_SPLITS) * N_FINGERS


def build_branch_plan(n_frames: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """The N_BRANCHES (sub-sequence, finger) branches over a sequence.

    Each branch is ``(start, stop, joints)``: frames 0-based and
    half-open, joints the 0-based lattice positions of one finger's four
    nodes, base to tip. This is the ``branches`` argument of the branch
    family layers, in the column-block order of the aggregation weight:
    sub-sequence-major (whole, halves, thirds), then finger.
    """
    if n_frames < 6:
        raise InvalidInput(f"need at least 6 frames for the branch plan, got {n_frames}")
    ranges = [piece for parts in SUB_SEQUENCE_SPLITS for piece in split_range(n_frames, parts)]
    fingers = [tuple(j - GRID_NODE_IDS[0] for j in finger_joints(f))
               for f in range(1, N_FINGERS + 1)]
    return tuple((start, stop, joints) for start, stop in ranges for joints in fingers)


# ---------------------------------------------------------------------------
# loaders


def _parse_floats(path: Path, lineno: int, tokens: list[str], expected: int) -> np.ndarray:
    if len(tokens) != expected:
        raise ParseError(f"{path}:{lineno}: expected {expected} values, got {len(tokens)}")
    try:
        row = np.array([float(t) for t in tokens], dtype=np.float64)
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: non-numeric value ({exc})") from exc
    if not np.all(np.isfinite(row)):
        raise ParseError(f"{path}:{lineno}: non-finite coordinate")
    return row


def _read_text(path: Path, what: str) -> str:
    """The text of a UTF-8 file.

    A missing or unreadable file is a ConfigError naming it as ``what``;
    bytes that are not UTF-8 are a ParseError naming the file and line.
    """
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise ConfigError(f"missing {what}: {path}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc.strerror}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{lineno}: not UTF-8 text "
                         f"(byte 0x{data[exc.start]:02x})") from None


def _lines(text: str):
    """The lines of a text, LF, CRLF or CR terminated."""
    return io.StringIO(text, newline=None)


def _read_skeleton_file(path: Path, expected: int) -> np.ndarray:
    """The (frames, expected) values of a skeleton file: the one-pass read,
    else the line loop that names the line at fault."""
    text = _read_text(path, "sequence file")
    values = _parse_whole(text, expected)
    return values if values is not None else _parse_by_line(path, text, expected)


def _parse_whole(text: str, expected: int) -> np.ndarray | None:
    """Every frame of a skeleton file in one ``np.loadtxt`` call, or None.

    loadtxt splits on the same Unicode whitespace as ``str.split``, skips
    the same blank lines and parses tokens with the routine ``float()``
    uses; only ``float()`` also takes underscores and non-ASCII digits.
    What this accepts, `_parse_by_line` reads to the same bits. None
    leaves the text to `_parse_by_line`: loadtxt rejected a token, the
    column count is not ``expected``, a value is not finite, or the text
    is blank (on which loadtxt warns).
    """
    if not text or text.isspace():
        return None
    try:
        values = np.loadtxt(_lines(text), dtype=np.float64, comments=None, ndmin=2)
    except ValueError:
        return None
    if values.shape[1] != expected or not np.isfinite(values).all():
        return None
    return values


def _parse_by_line(path: Path, text: str, expected: int) -> np.ndarray:
    rows = [_parse_floats(path, lineno, tokens, expected)
            for lineno, tokens in enumerate(map(str.split, _lines(text)), start=1) if tokens]
    if not rows:
        raise ParseError(f"{path}:1: empty skeleton file")
    return np.stack(rows)


def _read_index(path: Path, n_fields: int) -> list[tuple[str, list[int]]]:
    entries = []
    for lineno, line in enumerate(_lines(_read_text(path, "split index file")), start=1):
        tokens = line.split()
        if not tokens:
            continue
        if len(tokens) != n_fields:
            raise ParseError(f"{path}:{lineno}: expected {n_fields} fields, got {len(tokens)}")
        try:
            fields = [int(t) for t in tokens[1:]]
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: non-integer field ({exc})") from exc
        if any(abs(v) > 2**53 for v in fields):
            raise ParseError(f"{path}:{lineno}: integer field beyond +-2**53, the range "
                             "a feature file holds exactly")
        entries.append((tokens[0], fields))
    entries.sort(key=lambda e: e[0])
    return entries


def _split_entries(root: Path, split: str, n_fields: int):
    """Resolve a split name to index entries.

    ``train``/``test`` read the matching index file; ``loso-train:K`` and
    ``loso-test:K`` pool both files and partition by subject K.
    """
    if split in ("train", "test"):
        return _read_index(root / f"{split}.txt", n_fields)
    if split.startswith(("loso-train:", "loso-test:")):
        kind, _, subj = split.partition(":")
        try:
            subject = int(subj)
        except ValueError:
            raise ConfigError(f"bad leave-one-subject-out split {split!r}") from None
        pooled = _read_index(root / "train.txt", n_fields) + _read_index(root / "test.txt", n_fields)
        pooled.sort(key=lambda e: e[0])
        held_out = kind == "loso-test"
        return [e for e in pooled if (e[1][-1] == subject) == held_out]
    raise ConfigError(
        f"unknown split {split!r}; expected train, test, loso-train:K or loso-test:K"
    )


def _load(root_path, split: str, n_fields: int, skip: int,
          label_field: int) -> list[SkeletonSequence]:
    """The sequences of a split. Index lines have ``n_fields`` fields, the
    label at ``label_field`` of the integers and the subject last; each
    frame line has ``skip`` values, then the lattice's 60, which the
    frames view in place. A file of fewer than 2 frames is an error
    naming it."""
    root = Path(root_path)
    if not root.is_dir():
        raise ConfigError(f"dataset root does not exist: {root}")
    sequences = []
    for relpath, fields in _split_entries(root, split, n_fields):
        values = _read_skeleton_file(root / relpath, skip + 3 * N_GRID_NODES)
        seq = SkeletonSequence(frames=values[:, skip:].reshape(len(values), N_GRID_NODES, 3),
                               label=fields[label_field], subject=fields[-1], source=relpath)
        check_resamplable(seq)
        sequences.append(seq)
    return sequences


def load_dhg(root_path, split: str, classes: int = 14) -> list[SkeletonSequence]:
    """Load DHG-style sequences: 66 values per line, wrist and palm first.

    Index lines are ``relpath label14 label28 subject`` with 0-based
    labels; ``classes`` selects which label column applies.
    """
    if classes not in (14, 28):
        raise ConfigError(f"classes must be 14 or 28, got {classes}")
    return _load(root_path, split, 4, 6, 0 if classes == 14 else 1)


def load_fpha(root_path, split: str) -> list[SkeletonSequence]:
    """Load FPHA-style sequences: a frame index, then 21 joints (wrist
    first) per line. Index lines are ``relpath label subject``."""
    return _load(root_path, split, 3, 4, 0)


# ---------------------------------------------------------------------------
# synthetic fixtures


def _synthetic_frames(cls: int, n_frames: int, rng) -> np.ndarray:
    """One DHG-format sequence whose motion encodes the class.

    Classes differ in which finger moves, how fast, and (decisively for
    covariance features) by how much: per-class sway scales are spread
    over a wide geometric range.
    """
    frames = np.zeros((n_frames, 22, 3))
    frames[:, 1, 2] = 0.4  # palm above wrist
    for f in range(1, N_FINGERS + 1):
        for node in finger_joints(f):
            _, level = node_finger_level(node)
            frames[:, node - 1, 0] = 0.3 * (f - 3)
            frames[:, node - 1, 2] = 0.4 + 0.25 * level
    moving = cls % N_FINGERS + 1
    freq = 1.0 + 0.8 * (cls // N_FINGERS) + 0.35 * cls
    scale = 0.4 * 4.0 ** (cls % 3)
    t = np.linspace(0.0, 2.0 * np.pi * freq, n_frames)
    direction = 1.0 if cls % 2 == 0 else -1.0
    for node in finger_joints(moving):
        _, level = node_finger_level(node)
        sway = scale * level / N_LEVELS
        frames[:, node - 1, 0] += sway * np.sin(t + 0.4 * level)
        frames[:, node - 1, 1] += direction * sway * np.cos(t)
    frames += rng.normal(scale=0.02 * scale, size=frames.shape)
    return frames


def write_synthetic_dataset(
    root_path,
    *,
    n_classes: int = 2,
    train_per_class: int = 10,
    test_per_class: int = 0,
    n_frames: int = 20,
    seed: int = 0,
) -> None:
    """Emit a miniature DHG-format dataset with separable motion classes."""
    root = Path(root_path)
    (root / "sequences").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for kind, per_class in (("train", train_per_class), ("test", test_per_class)):
        lines = []
        for cls in range(n_classes):
            for k in range(per_class):
                frames = _synthetic_frames(cls, n_frames, rng)
                rel = f"sequences/{kind}_c{cls}_{k:02d}.txt"
                with open(root / rel, "w") as fh:
                    for frame in frames:
                        fh.write(" ".join(f"{v:.9f}" for v in frame.ravel()) + "\n")
                subject = k % 3 + 1
                lines.append(f"{rel} {cls} {cls} {subject}\n")
        with open(root / f"{kind}.txt", "w") as fh:
            fh.writelines(lines)
