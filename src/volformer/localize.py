"""Gradient-weighted class activation maps over the volume trunk.

A map is produced by one private forward/backward pass: the target-class
logit is differentiated with respect to a chosen stage's feature map,
channel weights are the spatial means of those gradients, and the weighted,
ReLU-ed sum is upsampled (trilinear, corner-aligned) to input extents and
max-normalized into [0, 1]. A weighted sum with no positive voxels yields a
flagged degenerate map rather than an error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import read_volume, write_volume
from .errors import ConfigError, DataError
from .tensor import Tensor

INTERPOLATION = "trilinear-corner-aligned"
NORMALIZATION = "max"


@dataclass
class ActivationMap:
    volume: np.ndarray
    layer: str
    target_class: int
    interpolation: str = INTERPOLATION
    degenerate: bool = False

    def validate(self) -> None:
        v = self.volume
        if v.min() < 0.0 or v.max() > 1.0:
            raise DataError(f"activation values outside [0, 1]: "
                            f"[{v.min()}, {v.max()}]")
        if not self.degenerate and not math.isclose(float(v.max()), 1.0,
                                                    rel_tol=1e-6):
            raise DataError("non-degenerate map must peak at 1 after scaling")


# ---------------------------------------------------------------------------
# trilinear resampling


def _axis_positions(in_extent: int, out_extent: int):
    """Corner-aligned source positions: low index, high index, high weight."""
    if in_extent == 1 or out_extent == 1:
        zeros = np.zeros(out_extent, dtype=np.int64)
        return zeros, zeros, np.zeros(out_extent)
    pos = np.arange(out_extent) * (in_extent - 1) / (out_extent - 1)
    lo = np.minimum(np.floor(pos).astype(np.int64), in_extent - 2)
    return lo, lo + 1, pos - lo


def trilinear_resize(src: np.ndarray, target: tuple[int, int, int]) -> np.ndarray:
    """Corner-aligned trilinear resampling; exact where the output lattice
    lands on source voxel centers."""
    src = np.asarray(src, dtype=np.float64)
    if src.ndim != 3 or len(target) != 3:
        raise DataError(f"resize expects 3D volumes, got {src.shape} -> {tuple(target)}")
    if any(e < 1 for e in target):
        raise DataError(f"target extents must be positive, got {tuple(target)}")
    axes = [_axis_positions(s, t) for s, t in zip(src.shape, target)]
    out = np.zeros(target)
    for pick_z in range(2):
        z_idx = axes[0][pick_z]
        w_z = axes[0][2] if pick_z else 1.0 - axes[0][2]
        for pick_y in range(2):
            y_idx = axes[1][pick_y]
            w_y = axes[1][2] if pick_y else 1.0 - axes[1][2]
            for pick_x in range(2):
                x_idx = axes[2][pick_x]
                w_x = axes[2][2] if pick_x else 1.0 - axes[2][2]
                weight = (w_z[:, None, None] * w_y[None, :, None]
                          * w_x[None, None, :])
                out += weight * src[np.ix_(z_idx, y_idx, x_idx)]
    return out


# ---------------------------------------------------------------------------
# map construction


def resolve_layer(model, target_class: int, layer: str | None = None) -> str:
    """Check a map request against ``model``; return the layer to map, by
    default the deepest conv output."""
    names = model.trace_layer_names()
    if layer is None:
        conv_names = [n for n in names if n.endswith(".conv")]
        layer = conv_names[-1] if conv_names else names[-1]
    elif layer not in names:
        raise ConfigError(f"unknown trace layer {layer!r}; choose from {names}")
    if not 0 <= target_class < model.cfg.class_count:
        raise ConfigError(f"target class {target_class} outside "
                          f"0..{model.cfg.class_count - 1}")
    return layer


def grad_cam(model, volume, target_class: int, layer: str | None = None
             ) -> ActivationMap:
    """Class-evidence map for one volume from a trained model in eval mode."""
    layer = resolve_layer(model, target_class, layer)
    arr = np.asarray(volume.data if isinstance(volume, Tensor) else volume)
    if arr.ndim != 3:
        raise DataError(f"expected a (D, H, W) volume, got shape {arr.shape}")
    x = Tensor(arr[None, None].astype(model.params()[0][1].data.dtype))
    logits, trace = model.forward_trace(x, training=False)
    score = T.tensor_sum(T.narrow(logits, 1, target_class, 1))
    T.backward(score)
    act = trace[layer]
    grads = act.grad[0]
    features = act.data[0]
    T.zero_grads([p for _, p in model.params()])
    channel_weights = grads.mean(axis=(1, 2, 3))
    combined = np.einsum("c,cdhw->dhw", channel_weights, features)
    cam = trilinear_resize(np.maximum(combined, 0.0), arr.shape)
    return _peak_normalized(cam, layer, target_class)


def average_maps(maps: list[ActivationMap]) -> ActivationMap:
    """Subject-level map: mean of per-volume maps, re-normalized to peak 1."""
    if not maps:
        raise DataError("cannot average an empty list of maps")
    first = maps[0]
    for m in maps[1:]:
        if m.volume.shape != first.volume.shape:
            raise DataError(f"map extents differ: {m.volume.shape} vs "
                            f"{first.volume.shape}")
        if m.layer != first.layer or m.target_class != first.target_class:
            raise DataError("cannot average maps from different layers/classes")
    stacked = np.stack([m.volume for m in maps]).mean(axis=0)
    return _peak_normalized(stacked, first.layer, first.target_class)


def _peak_normalized(values: np.ndarray, layer: str, target_class: int) -> ActivationMap:
    """Scale non-negative ``values`` to peak 1; all zeros give a degenerate map."""
    peak = float(values.max())
    degenerate = peak <= 0.0
    if not degenerate:
        values = values / peak
    amap = ActivationMap(np.clip(values, 0.0, 1.0).astype(np.float32), layer,
                         target_class, degenerate=degenerate)
    amap.validate()
    return amap


def top_fraction_mask(volume: np.ndarray, fraction: float) -> np.ndarray:
    """Boolean mask of the highest-valued fraction of voxels (ties included)."""
    if not 0 < fraction <= 1:
        raise ConfigError(f"fraction must sit in (0, 1], got {fraction}")
    flat = np.asarray(volume, dtype=np.float64).reshape(-1)
    k = max(1, int(math.ceil(fraction * flat.size)))
    threshold = np.partition(flat, flat.size - k)[flat.size - k]
    return np.asarray(volume) >= threshold


# ---------------------------------------------------------------------------
# export


def export_map(amap: ActivationMap, path, slices: bool = False) -> dict:
    """Write the map volume, a JSON sidecar, and optional mid-slice CSVs.

    Returns the written paths keyed by artifact name; the sidecar lives at
    ``<path>.json`` and slice dumps at ``<path stem>_axis<k>.csv``.
    """
    amap.validate()
    path = Path(path)
    write_volume(path, amap.volume)
    sidecar = path.with_name(path.name + ".json")
    with open(sidecar, "w") as fh:
        json.dump({
            "target_class": amap.target_class,
            "layer": amap.layer,
            "interpolation": amap.interpolation,
            "normalization": NORMALIZATION,
            "degenerate": amap.degenerate,
            "extents": list(amap.volume.shape),
        }, fh, indent=2)
        fh.write("\n")
    written = {"volume": path, "sidecar": sidecar}
    if slices:
        for axis in range(3):
            mid = amap.volume.shape[axis] // 2
            plane = np.take(amap.volume, mid, axis=axis)
            slice_path = path.with_name(f"{path.stem}_axis{axis}.csv")
            np.savetxt(slice_path, plane, delimiter=",", fmt="%.8g")
            written[f"slice_axis{axis}"] = slice_path
    return written


def load_map(path) -> ActivationMap:
    path = Path(path)
    volume = read_volume(path)
    sidecar = path.with_name(path.name + ".json")
    if not sidecar.exists():
        raise DataError(f"missing sidecar {sidecar}")
    with open(sidecar) as fh:
        meta = json.load(fh)
    amap = ActivationMap(volume, meta["layer"], int(meta["target_class"]),
                         meta.get("interpolation", INTERPOLATION),
                         bool(meta.get("degenerate", False)))
    amap.validate()
    return amap
