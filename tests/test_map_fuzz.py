"""Fuzzing of ``read_map_binary``, on its own and through the CLI error
contract.

Generated ``.fmap`` files are well-formed maps, some with one or two fields
broken: a truncated or extended file, a bad magic, a zero or wrong stride,
cell counts or image sizes that disagree, an unknown dtype tag, and cells
that are NaN, infinite or outside the valid range. Each case runs through
``focus chips``. A run must exit 0 and write its output when every map is
well-formed by the literal rules of the format below, and otherwise exit 1
with exactly one JSON error line on stderr and no output file. A
traceback, a numpy warning or any other stderr line fails the test. On
its own, ``read_map_binary`` gives a well-formed file's cells in the file's
own dtype, which ``write_map_binary`` writes back byte for byte, and raises
``FormatError`` for any other file.
"""
import contextlib
import io
import json
import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pyrsample.cli import main
from pyrsample.serialization import FormatError, read_map_binary, write_map_binary

HEADER = struct.Struct("<4s5I2s")
U32 = st.integers(0, 2**32 - 1)
BREAKABLE = ("magic", "w_cells", "h_cells", "stride", "img_w", "img_h", "tag", "cell", "length")
FIELD_JUNK = {
    "magic": st.binary(min_size=4, max_size=4),
    "tag": st.sampled_from([b"f4", b"i1", b"f8", b"\0\0"]) | st.binary(min_size=2, max_size=2),
}
BAD_PROBABILITY = st.sampled_from(
    [float("nan"), float("inf"), float("-inf"), -1e-9, 1.0000001, 2.0, -3.5, 1e38]
)


def _extent(n_cells: int, stride: int):
    """Image extents whose grid at ``stride`` has ``n_cells`` cells, as far
    as the header's 32 bits allow."""
    lo = min((n_cells - 1) * stride + 1, 2**32 - 1)
    return st.integers(lo, min(n_cells * stride, 2**32 - 1))


@st.composite
def fmap_file(draw) -> bytes:
    """The bytes of one map file: a consistent map, then maybe broken."""
    stride = draw(st.integers(1, 40) | st.sampled_from([2**31, 2**32 - 1]))
    w_cells, h_cells = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    header = {
        "magic": b"FMAP",
        "w_cells": w_cells,
        "h_cells": h_cells,
        "stride": stride,
        "img_w": draw(_extent(w_cells, stride)),
        "img_h": draw(_extent(h_cells, stride)),
        "tag": draw(st.sampled_from([b"f4", b"i1"])),
    }
    n = w_cells * h_cells
    if header["tag"] == b"i1":
        cells = np.array(draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n)))
    else:
        cells = np.array(draw(st.lists(st.floats(0.0, 1.0, width=32), min_size=n, max_size=n)))
    broken = draw(st.sets(st.sampled_from(BREAKABLE), max_size=2)) if draw(st.booleans()) else set()
    for name in broken & header.keys():
        header[name] = draw(FIELD_JUNK.get(name, U32))
    if "cell" in broken:
        bad = st.integers(-128, 127) if header["tag"] == b"i1" else BAD_PROBABILITY
        cells[draw(st.integers(0, n - 1))] = draw(bad)
    dtype = np.int8 if header["tag"] == b"i1" else np.dtype("<f4")
    raw = HEADER.pack(*header.values()) + cells.astype(dtype).tobytes()
    if "length" in broken:
        cut = draw(st.integers(0, len(raw) + 5).filter(lambda c: c != len(raw)))
        raw = raw[:cut] + bytes(max(0, cut - len(raw)))
    return raw


def well_formed(raw: bytes) -> bool:
    """Whether a map file follows the format: a full header with the right
    magic, a positive stride, a non-empty image whose grid at the stride has
    the header's cell counts, a known dtype tag, exactly one payload value
    per cell, and label cells in {-1, 0, 1} or probabilities in [0, 1]."""
    if len(raw) < HEADER.size:
        return False
    magic, w_cells, h_cells, stride, img_w, img_h, tag = HEADER.unpack_from(raw)
    if magic != b"FMAP" or stride == 0 or img_w == 0 or img_h == 0:
        return False
    if (w_cells, h_cells) != (-(-img_w // stride), -(-img_h // stride)):
        return False
    payload = raw[HEADER.size :]
    n = w_cells * h_cells
    if tag == b"i1":
        return len(payload) == n and all(v in (-1, 0, 1) for v in struct.unpack(f"{n}b", payload))
    if tag == b"f4":
        return len(payload) == 4 * n and all(
            0.0 <= v <= 1.0 for v in struct.unpack(f"<{n}f", payload)
        )
    return False


def _map(cells, tag=b"f4", dtype="<f4") -> bytes:
    return HEADER.pack(b"FMAP", 2, 2, 32, 64, 64, tag) + np.array(cells, dtype=dtype).tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(fmap_file(), min_size=1, max_size=3))
@example([_map([0.9, np.nan, 0.1, 0.0])])
@example([_map([0.9, 0.5, 0.1, 0.0]), _map([0.9, 0.5, np.nan, 0.0])])
@example([_map([0.9, 0.5, 0.1, 0.0])[:10]])
@example([_map([0.9, 0.5, 0.1, 0.0], tag=b"x9")])
@example([HEADER.pack(b"FMAP", 3, 2, 32, 64, 64, b"f4") + bytes(16)])
@example([_map([0.9, np.inf, 0.1, 0.0])])
@example([_map([0, 1, 2, -1], tag=b"i1", dtype=np.int8)])
def test_focus_chips_exits_cleanly_on_any_map(files):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        maps = tmp / "maps"
        maps.mkdir()
        for i, raw in enumerate(files):
            (maps / f"{i + 1}_s1.fmap").write_bytes(raw)
        out = tmp / "chips.json"
        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                rc = main(["focus", "chips", "--probmaps", str(maps), "--out", str(out)])
        if all(well_formed(raw) for raw in files):
            assert rc == 0
            assert stderr.getvalue() == ""
            assert out.exists()
        else:
            assert rc == 1
            lines = stderr.getvalue().splitlines()
            assert len(lines) == 1
            error = json.loads(lines[0])["error"]
            assert error["type"] and error["message"]
            assert not out.exists()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fmap_file())
@example(_map([0.9, np.nan, 0.1, 0.0]))
@example(_map([0, 1, 2, -1], tag=b"i1", dtype=np.int8))
@example(_map([1, 0, 0, -1], tag=b"i1", dtype=np.int8))
def test_read_map_binary_keeps_the_files_cells(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "1_s1.fmap"
        path.write_bytes(raw)
        if not well_formed(raw):
            with pytest.raises(FormatError):
                read_map_binary(path)
            return
        m = read_map_binary(path)
        tag = HEADER.unpack_from(raw)[-1]
        assert m.cells.dtype == {b"i1": np.int8, b"f4": np.float32}[tag]
        assert m.cells.tobytes() == raw[HEADER.size:]
        write_map_binary(path, m)
        assert path.read_bytes() == raw
