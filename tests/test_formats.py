"""Round trips of every binary format, and rejection of bad headers and cut or padded files."""

import dataclasses
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mvhash.anchors import build_anchors, load_anchor_model, save_anchor_model
from mvhash.dataset import load_vectors, make_split, save_vectors
from mvhash.hashing import FAMILIES, load_codes, load_model, pack_bits, save_codes, save_model, train
from mvhash.index import load_split, save_split

_rng = np.random.default_rng(0)
_data = _rng.normal(size=(40, 6))


def _codes(bits):
    return pack_bits(_rng.random((7, bits)) < 0.5)


CASES = {
    # float32-representable, so the float32 file format holds them exactly
    "vectors": (save_vectors, load_vectors, _data[:7, :3].astype(np.float32).astype(np.float64)),
    **{f"model-{family}": (save_model, load_model, train(family, _data, 4, seed=1))
       for family in FAMILIES},
    **{f"codes-{bits}": (save_codes, load_codes, _codes(bits)) for bits in (1, 63, 64, 65, 128)},
    "anchors": (save_anchor_model, load_anchor_model, build_anchors(_data, 8, s_nn=3, seed=2)),
    "split": (save_split, load_split, make_split(50, 10, 5, seed=4)),
}


def _same(a, b) -> bool:
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


@pytest.mark.parametrize("name", sorted(CASES))
def test_save_then_load_is_equal(tmp_path, name):
    save, load, obj = CASES[name]
    path = tmp_path / f"{name}.bin"
    save(path, obj)
    assert _same(load(path), obj)


@pytest.mark.parametrize("name", sorted(CASES))
def test_bad_header_is_rejected_naming_its_path(tmp_path, name):
    save, load, obj = CASES[name]
    path = tmp_path / f"{name}.bin"
    save(path, obj)
    blob = path.read_bytes()
    bad = [(b"XXXX" + blob[4:], "magic")]
    if name != "vectors":  # the vectors magic "MVH1" carries its version
        (version,) = struct.unpack_from("<I", blob, 4)  # 2 for model, 3 for anchors, else 1
        for other in {1, version + 1} - {version}:
            bad.append((blob[:4] + struct.pack("<I", other) + blob[8:], f"version {other}"))
    if name.startswith("model"):
        bad.append((blob[:8] + bytes([len(FAMILIES)]) + blob[9:], "family tag"))
    for data, what in bad:
        path.write_bytes(data)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*{what}"):
            load(path)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(sorted(CASES)), data=st.data())
def test_cut_or_padded_file_is_rejected_naming_its_path(name, data):
    save, load, obj = CASES[name]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{name}.bin"
        save(path, obj)
        blob = path.read_bytes()
        prefix = blob[:data.draw(st.integers(0, len(blob) - 1), label="prefix length")]
        padded = blob + data.draw(st.binary(min_size=1, max_size=16), label="trailing bytes")
        for bad in (prefix, padded):
            path.write_bytes(bad)
            with pytest.raises(ValueError, match=re.escape(str(path))):
                load(path)


@pytest.mark.parametrize("bits", [1, 48, 63, 65])
def test_set_padding_bits_are_rejected_naming_the_file(tmp_path, bits):
    # hamming_scan counts every bit of the words, so a set padding bit would
    # add one to each distance from that item
    codes = _codes(bits)
    codes.words[3, -1] |= np.uint64(1) << np.uint64(63)
    path = tmp_path / "codes.bin"
    save_codes(path, codes)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: code row 3 sets padding"):
        load_codes(path)


def test_bad_model_values_are_rejected_naming_the_file(tmp_path):
    # a 4-bit model of 6-d data: after the header come 6 mean and 4 x 6
    # projection float64s
    header = len(b"MVHM") + struct.calcsize("<IBII")
    path = tmp_path / "model.bin"
    for family, at, value, what in (
            ("lsh", 1, np.nan, "non-finite value in the mean"),
            ("pcah", 6 + 8, np.inf, "non-finite value in the projection"),
            ("itq", 29, -np.inf, "non-finite value in the projection")):
        save_model(path, train(family, _data, 4, seed=1))
        blob = bytearray(path.read_bytes())
        blob[header + 8 * at:header + 8 * at + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {what}$"):
            load_model(path)
