"""Seeded mutation harness for the binary inputs of ``localize``.

A valid desk ``.vfv`` volume and a valid ``.ckpt`` checkpoint are truncated
at every header field boundary, get single-bit flips in their header and
metadata bytes, and have their rank and extents rewritten. ``localize`` runs
in-process on each case. A CRC32 covers every stored byte of both formats, so
every case must be refused with the code of the file it mutates (3 for a
volume, 5 for a checkpoint), never with a traceback, and must leave its output
directory empty.

The checksum alone would stop nearly every case, so each structural rewrite
(the volume's rank and extents; the first checkpoint tensor's name bytes,
dtype code, rank and extents) and each sampled metadata flip also runs
resealed, with a valid trailing CRC, to reach the parse checks behind it. A
resealed (D, H, W) volume that parses but has other extents does not fit the
model, so its code is the checkpoint's 5 (``cli._map_model``); a resealed
metadata flip may exit 0, since it can spell another valid config.
"""

import math
import struct
import zlib

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


def _reseal(blob: bytes) -> bytes:
    """``blob`` with its last four bytes replaced by a CRC32 of the rest."""
    return blob[:-4] + struct.pack("<I", zlib.crc32(blob[:-4]))


def _volume_cases(blob: bytes, rng) -> dict[str, tuple[bytes, set[int]]]:
    """Each case's bytes and the exit codes that may refuse it."""
    cases = {f"truncated at {n}": (blob[:n], {3})
             for n in (0, 4, 8, 12, 16, VOLUME_HEADER, len(blob) - 4, len(blob) - 1)}
    cases.update({f"bit flip in byte {i}": (_flip(blob, i, rng), {3})
                  for i in range(VOLUME_HEADER)})
    payload = blob[VOLUME_HEADER:]
    for extents in [(), (0, 18, 16), (18, 16, 16), (16, 288), (1, 16, 18, 16), (1,) * 9,
                    (65536,) * 4, (2**32 - 1,) * 3, (2**31, 2**31, 4)]:
        header = struct.pack(f"<I{len(extents)}I", len(extents), *extents)
        name = f"rank {len(extents)} extents {extents}"
        cases[name] = (blob[:4] + header + payload, {3})
        other_volume = (len(extents) == 3 and min(extents) >= 1
                        and 4 * math.prod(extents) == len(payload) - 4)
        cases[f"resealed {name}"] = (_reseal(blob[:4] + header + payload),
                                     {5 if other_volume else 3})
        if math.prod(extents) >= 2**62:  # also with an empty payload
            empty = blob[:4] + header + bytes(4)
            cases[f"extents {extents}, no payload"] = (empty, {3})
            cases[f"resealed extents {extents}, no payload"] = (_reseal(empty), {3})
    wide = blob[:4] + struct.pack("<I", 2**32 - 1) + blob[8:]
    cases["rank 2**32 - 1"] = (wide, {3})
    cases["resealed rank 2**32 - 1"] = (_reseal(wide), {3})
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


def _checkpoint_cases(blob: bytes, rng) -> dict[str, tuple[bytes, set[int]]]:
    """Each case's bytes and the exit codes that may refuse it."""
    bounds, meta, first = _checkpoint_fields(blob)
    cases = {f"truncated at {n}": (blob[:n], {5}) for n in bounds}
    name_len, = struct.unpack_from("<H", blob, first)
    rank_at = first + 3 + name_len
    header = [*range(12), *range(meta.stop, rank_at + 1 + 4 * blob[rank_at])]
    sampled = rng.choice(meta, size=48, replace=False).tolist()
    resealed = {*sampled, *range(first + 2, rank_at)}  # metadata, name bytes, dtype code
    for i in sorted({*header, *sampled}):
        flipped = _flip(blob, i, rng)
        cases[f"bit flip in byte {i}"] = (flipped, {5})
        if i in resealed:
            cases[f"resealed bit flip in byte {i}"] = (
                _reseal(flipped), {0, 5} if i in meta else {5})
    ndim = blob[rank_at]
    extents_at, rest = rank_at + 1, rank_at + 1 + 4 * ndim
    for rank in (0, 1, ndim - 1, ndim + 1, 255):
        ranked = blob[:rank_at] + bytes([rank]) + blob[rank_at + 1:]
        cases[f"first tensor rank {rank}"] = (ranked, {5})
        cases[f"resealed first tensor rank {rank}"] = (_reseal(ranked), {5})
    shape = struct.unpack_from(f"<{ndim}I", blob, extents_at)
    for extents in [shape[::-1], (0,) + shape[1:], (65536,) * ndim, (2**32 - 1,) * ndim]:
        packed = blob[:extents_at] + struct.pack(f"<{ndim}I", *extents) + blob[rest:]
        cases[f"first tensor extents {extents}"] = (packed, {5})
        cases[f"resealed first tensor extents {extents}"] = (_reseal(packed), {5})
    return cases


def _run_cases(root, cases: dict[str, tuple[bytes, set[int]]], kind: str,
               capsys) -> list[str]:
    """Run ``localize`` on each mutated file; describe every case that broke the rules:
    an exit code outside its set, a traceback, a file left by a refusal, or a
    resealed case refused by its checksum."""
    bad = []
    for i, (name, (blob, codes)) in enumerate(cases.items()):
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
        if (rc not in codes or "Traceback" in err or (rc and left)
                or (name.startswith("resealed") and "checksum mismatch" in err)):
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
