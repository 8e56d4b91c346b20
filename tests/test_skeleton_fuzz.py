"""The text readers under mutation.

A skeleton file is read in one ``np.loadtxt`` pass, with the line loop
as the fallback that names the line at fault. Whatever the bytes, both
readers must agree: the same array, bit for bit, or the same exception
and message. Index files must load or raise a ParseError naming the
file and line.
"""

import re
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spdhgr import skeleton
from spdhgr.errors import ParseError

# Tokens and separators that the two readers could treat differently.
ODD_TOKENS = ["nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400", "1e-400", "1_0",
              "#", "#1", "\ufeff1", "0x1", "1e", ".", "+.5", "5.", "-0", "\u0661", "\uff11", "\x00",
              "1,0", "'1'", '"1"', "1.5.5", "--1", "", "1e5", "-2.5e-3"]
SEPARATORS = [" ", "  ", "\t", " \t", "\f", "\v", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]
LINE_ENDS = ["\n", "\r\n", "\r"]
BLANK_TEXTS = ["", " ", "\n", "\r\n", " \t\n\n", "\f", "\x85\n", "\ufeff", "\x00"]

coordinates = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
formats = st.sampled_from(["{:.6f}", "{!r}", "{:.3e}", "{:.0f}"])


@st.composite
def mutated_texts(draw, n_values, leading_index):
    """The bytes of a valid skeleton file after a few mutations."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(BLANK_TEXTS)).encode("utf-8")
    n_frames = draw(st.integers(1, 3))
    fmt = draw(formats)
    values = draw(st.lists(coordinates, min_size=n_frames * n_values,
                           max_size=n_frames * n_values))
    rows = []
    for f in range(n_frames):
        row = [fmt.format(v) for v in values[f * n_values:(f + 1) * n_values]]
        rows.append(([str(f)] if leading_index else []) + row)
    # token edits: replace, insert, drop
    for kind, r, pos, token in draw(st.lists(
            st.tuples(st.sampled_from(["replace", "insert", "drop"]), st.integers(0, 2),
                      st.integers(0, n_values), st.sampled_from(ODD_TOKENS)), max_size=2)):
        row = rows[r % n_frames]
        pos = min(pos, len(row) - 1)
        if kind == "replace":
            row[pos] = token
        elif kind == "insert":
            row.insert(pos, token)
        elif row:
            del row[pos]
    sep = draw(st.sampled_from(SEPARATORS))
    end = draw(st.sampled_from(LINE_ENDS))
    lines = [sep.join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", " ", "\t"])))
    text = end.join(lines) + draw(st.sampled_from(["", end, end + end]))
    if draw(st.booleans()):
        text = draw(st.sampled_from(["\ufeff", " ", "#", "\n"])) + text
    data = text.encode("utf-8")
    # byte edits: truncation and flips
    if data and draw(st.integers(0, 3)) == 0:
        data = data[:draw(st.integers(0, len(data) - 1))]
    for pos, mask in draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
                                   max_size=2)):
        if data:
            pos %= len(data)
            data = data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1:]
    return data


def _outcome(read):
    """What a read gives: the array's shape, layout and bytes, or its exception."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = read()
    except Exception as exc:  # compared, never swallowed: both readers must agree
        return type(exc), str(exc)
    return values.shape, values.dtype, values.flags.c_contiguous, values.tobytes()


def _check_readers_agree(data, n_values):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "seq.txt"
        path.write_bytes(data)

        def read():
            return skeleton._read_skeleton_file(path, n_values)

        one_pass = _outcome(read)
        with mock.patch.object(skeleton, "_parse_whole", return_value=None):
            by_line = _outcome(read)
    assert one_pass == by_line
    if isinstance(one_pass[0], type):
        assert one_pass[0] is ParseError
        assert re.match(rf"{re.escape(str(path))}:\d+: ", one_pass[1])


@settings(max_examples=250)
@given(mutated_texts(66, leading_index=False))
def test_dhg_readers_agree(data):
    _check_readers_agree(data, 66)


@settings(max_examples=250)
@given(mutated_texts(63, leading_index=True))
def test_fpha_readers_agree(data):
    _check_readers_agree(data, 64)


@settings(max_examples=20)
@given(st.integers(1, 4), st.booleans(), formats, st.integers(0, 2**32 - 1))
def test_valid_files_take_the_one_pass_read(n_frames, leading_index, fmt, seed):
    expected = 64 if leading_index else 66
    values = np.random.default_rng(seed).standard_normal((n_frames, expected)).tolist()
    text = "".join(" ".join(fmt.format(v) for v in row) + "\n" for row in values)
    assert skeleton._parse_whole(text, expected) is not None


@st.composite
def mutated_indexes(draw):
    """The bytes of a valid DHG index after a few mutations."""
    n = draw(st.integers(1, 4))
    rows = [[f"sequences/s{k}.txt"] + [str(draw(st.integers(0, 30))) for _ in range(3)]
            for k in range(n)]
    for kind, r, pos, token in draw(st.lists(
            st.tuples(st.sampled_from(["replace", "insert", "drop"]), st.integers(0, 3),
                      st.integers(0, 4), st.sampled_from(ODD_TOKENS + ["1" * 5000, "-3"])),
            max_size=2)):
        row = rows[r % n]
        pos = min(pos, len(row) - 1)
        if kind == "replace":
            row[pos] = token
        elif kind == "insert":
            row.insert(pos, token)
        elif row:
            del row[pos]
    end = draw(st.sampled_from(LINE_ENDS))
    data = (end.join(draw(st.sampled_from(SEPARATORS)).join(r) for r in rows) + end).encode()
    if draw(st.booleans()):
        data = data[:draw(st.integers(0, len(data)))]
    for pos, mask in draw(st.lists(st.tuples(st.integers(0, 10**6), st.integers(1, 255)),
                                   max_size=2)):
        if data:
            pos %= len(data)
            data = data[:pos] + bytes([data[pos] ^ mask]) + data[pos + 1:]
    return data


@settings(max_examples=200)
@given(mutated_indexes())
def test_index_mutations_load_or_name_file_and_line(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "train.txt"
        path.write_bytes(data)
        try:
            entries = skeleton._read_index(path, 4)
        except ParseError as exc:
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(exc))
        else:
            assert all(len(fields) == 3 and all(type(v) is int for v in fields)
                       for _, fields in entries)
