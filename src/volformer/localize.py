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
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import read_volume, replacing, write_json, write_volume
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
    probs: np.ndarray | None = None  # set by grad_cam; not in the sidecar

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


def _interp_matrix(in_extent: int, out_extent: int) -> np.ndarray:
    """(out, in) corner-aligned linear-interpolation weights along one axis:
    the tent 1 - |distance| to each source point; a singleton output takes
    source point 0."""
    pos = np.arange(out_extent) * (in_extent - 1) / max(out_extent - 1, 1)
    return np.maximum(0.0, 1.0 - np.abs(pos[:, None] - np.arange(in_extent)))


def trilinear_resize(src: np.ndarray, target: tuple[int, int, int]) -> np.ndarray:
    """Corner-aligned trilinear resampling; exact where the output lattice
    lands on source voxel centers."""
    src = np.asarray(src, dtype=np.float64)
    if src.ndim != 3 or len(target) != 3:
        raise DataError(f"resize expects 3D volumes, got {src.shape} -> {tuple(target)}")
    if any(e < 1 for e in target):
        raise DataError(f"target extents must be positive, got {tuple(target)}")
    out = src
    for extent, size in zip(src.shape, target):
        # contract the leading axis and append its output axis: (D, H, W) after three
        out = np.tensordot(out, _interp_matrix(extent, size), axes=(0, 1))
    return out


# ---------------------------------------------------------------------------
# map construction


def resolve_layer(model, target_class: int, layer: str | None = None) -> str:
    """Check a map request against ``model``; return the layer to map, by
    default the deepest conv output."""
    names = model.encoder.layer_names()
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
    """Class-evidence map for one volume from a trained model in eval mode.

    The map's ``probs`` are the class probabilities from the same eval-mode
    forward pass, equal to ``model.forward_volume`` for the volume.
    """
    layer = resolve_layer(model, target_class, layer)
    arr = np.asarray(volume.data if isinstance(volume, Tensor) else volume)
    if arr.ndim != 3:
        raise DataError(f"expected a (D, H, W) volume, got shape {arr.shape}")
    params = model.tensors
    x = Tensor(arr[None, None], requires_grad=True)
    # The map needs activation gradients only: with the parameters untracked
    # the sweep computes no kernel gradient, and the tracked input records
    # the graph in their place. Cut below the mapped layer, which then
    # looks like a constant to the sweep, so nothing beneath it runs.
    tracked = [p.requires_grad for p in params]
    try:
        for p in params:
            p.requires_grad = False
        logits, trace = model.forward_trace(x, training=False)
        act = trace[layer]
        act._parents, act._backward = (), None
        probs = T.softmax(Tensor(logits.data), -1).data[0]
        T.backward(T.tensor_sum(T.narrow(logits, 1, target_class, 1)))
    finally:
        for p, flag in zip(params, tracked):
            p.requires_grad = flag
    grads = act.grad[0]
    features = act.data[0]
    channel_weights = grads.mean(axis=(1, 2, 3))
    combined = np.einsum("c,cdhw->dhw", channel_weights, features)
    cam = trilinear_resize(np.maximum(combined, 0.0), arr.shape)
    amap = _peak_normalized(cam, layer, target_class)
    amap.probs = probs
    return amap


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
    ``<path>.json`` and slice dumps at ``<path stem>_axis<k>.csv``. Each file
    is written under a temporary name, and none is moved onto its final name
    unless all were written.
    """
    amap.validate()
    path = Path(path)
    written = {"volume": path, "sidecar": path.with_name(path.name + ".json")}
    if slices:
        written.update({f"slice_axis{axis}": path.with_name(f"{path.stem}_axis{axis}.csv")
                        for axis in range(3)})
    with ExitStack() as stack:
        tmp = {name: stack.enter_context(replacing(p)) for name, p in written.items()}
        write_volume(tmp["volume"], amap.volume)
        write_json(tmp["sidecar"], {
            "target_class": amap.target_class,
            "layer": amap.layer,
            "interpolation": amap.interpolation,
            "normalization": NORMALIZATION,
            "degenerate": amap.degenerate,
            "extents": list(amap.volume.shape),
        })
        for axis in range(3) if slices else ():
            plane = np.take(amap.volume, amap.volume.shape[axis] // 2, axis=axis)
            np.savetxt(tmp[f"slice_axis{axis}"], plane, delimiter=",", fmt="%.8g")
    return written


def load_map(path) -> ActivationMap:
    path = Path(path)
    volume = read_volume(path)
    sidecar = path.with_name(path.name + ".json")
    if not sidecar.exists():
        raise DataError(f"missing sidecar {sidecar}")
    try:
        with open(sidecar) as fh:
            meta = json.load(fh)
        layer, target_class = meta["layer"], int(meta["target_class"])
    except (ValueError, KeyError, TypeError) as err:  # JSONDecodeError is a ValueError
        raise DataError(f"unreadable sidecar {sidecar}: {err!r}") from None
    amap = ActivationMap(volume, layer, target_class,
                         meta.get("interpolation", INTERPOLATION),
                         bool(meta.get("degenerate", False)))
    amap.validate()
    return amap
