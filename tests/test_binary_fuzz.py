"""Seeded mutation harness for the binary inputs of ``localize``.

A valid desk ``.vfv`` volume and a valid ``.ckpt`` checkpoint are truncated
at every header field boundary, get single-bit flips in their header and
metadata bytes, and have their rank and extents rewritten. ``localize`` runs
in-process on each case. A CRC32 covers every stored byte of both formats, so
every case must be refused with the code of the file it mutates (3 for a
volume, 5 for a checkpoint), never with a traceback, and must leave its output
directory empty.
"""

import math
import struct

import numpy as np
import pytest

from volformer.cli import main
from volformer.data import write_volume
from volformer.model import BrainFormer, ModelConfig, save_model

SEED = 9
EXTENT = (16, 18, 16)
VOLUME_HEADER = 20  # magic, rank and three extents
ITEMSIZE = {0: 4, 1: 8}  # checkpoint dtype code -> bytes per element


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """A directory with a desk checkpoint (running stats set) and a desk volume."""
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(SEED)
    model = BrainFormer(ModelConfig.desk(), seed=SEED)
    model.forward_logits(rng.normal(size=(2, 1, *EXTENT)).astype(np.float32), training=True)
    save_model(model, root / "model.ckpt")
    write_volume(root / "volume.vfv", rng.normal(size=EXTENT).astype(np.float32))
    return root


def _flip(blob: bytes, at: int, rng) -> bytes:
    out = bytearray(blob)
    out[at] ^= 1 << int(rng.integers(8))
    return bytes(out)


def _volume_cases(blob: bytes, rng) -> dict[str, bytes]:
    cases = {f"truncated at {n}": blob[:n]
             for n in (0, 4, 8, 12, 16, VOLUME_HEADER, len(blob) - 4, len(blob) - 1)}
    cases.update({f"bit flip in byte {i}": _flip(blob, i, rng) for i in range(VOLUME_HEADER)})
    payload = blob[VOLUME_HEADER:]
    for extents in [(), (0, 18, 16), (18, 16, 16), (16, 288), (1, 16, 18, 16), (1,) * 9,
                    (65536,) * 4, (2**32 - 1,) * 3, (2**31, 2**31, 4)]:
        header = struct.pack(f"<I{len(extents)}I", len(extents), *extents)
        cases[f"rank {len(extents)} extents {extents}"] = blob[:4] + header + payload
        if math.prod(extents) >= 2**62:  # also with an empty payload
            cases[f"extents {extents}, no payload"] = blob[:4] + header + bytes(4)
    cases["rank 2**32 - 1"] = blob[:4] + struct.pack("<I", 2**32 - 1) + blob[8:]
    return cases


def _checkpoint_fields(blob: bytes) -> tuple[list[int], range, int]:
    """Offsets at which each header field, each field of the first two tensor
    records and the trailing CRC start; the metadata's byte range; the first
    record's offset."""
    meta_len, = struct.unpack_from("<I", blob, 8)
    at = 12 + meta_len
    bounds = [0, 4, 8, 12, at]  # magic, version, metadata length, metadata, tensor count
    first = at = at + 4
    for _ in range(2):
        name_len, = struct.unpack_from("<H", blob, at)
        code, ndim = blob[at + 2 + name_len], blob[at + 3 + name_len]
        shape = struct.unpack_from(f"<{ndim}I", blob, at + 4 + name_len)
        payload = at + 4 + name_len + 4 * ndim
        # name length, name, dtype code, rank, extents, payload
        bounds += [at, at + 2, at + 2 + name_len, at + 3 + name_len, at + 4 + name_len,
                   payload]
        at = payload + ITEMSIZE[code] * math.prod(shape)
    return bounds + [len(blob) - 4], range(12, 12 + meta_len), first


def _checkpoint_cases(blob: bytes, rng) -> dict[str, bytes]:
    bounds, meta, first = _checkpoint_fields(blob)
    cases = {f"truncated at {n}": blob[:n] for n in bounds}
    name_len, = struct.unpack_from("<H", blob, first)
    rank_at = first + 3 + name_len
    header = [*range(12), *range(meta.stop, rank_at + 1 + 4 * blob[rank_at])]
    sampled = rng.choice(meta, size=48, replace=False)
    for i in sorted({*header, *sampled.tolist()}):
        cases[f"bit flip in byte {i}"] = _flip(blob, i, rng)
    ndim = blob[rank_at]
    extents_at, rest = rank_at + 1, rank_at + 1 + 4 * ndim
    for rank in (0, 1, ndim - 1, ndim + 1, 255):
        cases[f"first tensor rank {rank}"] = blob[:rank_at] + bytes([rank]) + blob[rank_at + 1:]
    shape = struct.unpack_from(f"<{ndim}I", blob, extents_at)
    for extents in [shape[::-1], (0,) + shape[1:], (65536,) * ndim, (2**32 - 1,) * ndim]:
        packed = struct.pack(f"<{ndim}I", *extents)
        cases[f"first tensor extents {extents}"] = blob[:extents_at] + packed + blob[rest:]
    return cases


def _run_cases(root, cases: dict[str, bytes], kind: str, capsys) -> list[str]:
    """Run ``localize`` on each mutated file; describe every case that broke the rules."""
    code = 5 if kind == "ckpt" else 3
    bad = []
    for i, (name, blob) in enumerate(cases.items()):
        path, out = root / f"case{i}.{kind}", root / f"out_{kind}{i}"
        path.write_bytes(blob)
        ckpt, volume = (path, root / "volume.vfv") if kind == "ckpt" else (
            root / "model.ckpt", path)
        capsys.readouterr()
        try:
            rc = main(["localize", "--ckpt", str(ckpt), "--volume", str(volume),
                       "--class", "0", "--out", str(out)])
        except Exception as err:  # noqa: BLE001 -- any escape is the finding
            bad.append(f"{name}: raised {type(err).__name__}: {err}")
            continue
        err = capsys.readouterr().err
        left = sorted(p.name for p in out.rglob("*")) if out.exists() else []
        if rc != code or "Traceback" in err or left:
            bad.append(f"{name}: exit {rc}, files {left}, stderr {err.strip()!r}")
    return bad


def test_valid_inputs_map(valid, capsys):
    rc = main(["localize", "--ckpt", str(valid / "model.ckpt"),
               "--volume", str(valid / "volume.vfv"), "--class", "0",
               "--out", str(valid / "out_valid")])
    assert rc == 0, capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a flipped config may warn
@pytest.mark.parametrize("kind", ["vfv", "ckpt"])
def test_mutated_inputs_are_refused_without_a_traceback(valid, capsys, kind):
    rng = np.random.default_rng(SEED)
    if kind == "vfv":
        cases = _volume_cases((valid / "volume.vfv").read_bytes(), rng)
    else:
        cases = _checkpoint_cases((valid / "model.ckpt").read_bytes(), rng)
    bad = _run_cases(valid, cases, kind, capsys)
    assert not bad, "\n".join(bad)
