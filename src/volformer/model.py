"""Model assembly, multimodal branches, cost estimation, and checkpoints.

The volumetric network is: per-volume data normalization, a 7x7x7 stride-2
stem conv + BN + ReLU, four stages of residual conv blocks each optionally
followed by a global attention block (shallow token/channel mixing or
multi-head self-attention), global average pooling, and a linear classifier
ending in softmax. Optional sMRI, connectivity and phenotype branches
(``BRANCHES``) add features before the linear classifier.

Checkpoints are a little-endian container: magic ``VFCK``, u32 format
version (2), u32 metadata length + UTF-8 JSON metadata (config echo), u32
tensor count, then per tensor: u16 name length + name, u8 dtype
code (0 = float32, 1 = float64), u8 rank, u32 extents, raw row-major payload,
u32 CRC32 of the payload.
"""

from __future__ import annotations

import json
import math
import struct
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import tensor as T
from .config import Section
from .data import ContainerReader, write_container
from .errors import CheckpointError, ConfigError, DataError, ShapeError
from .layers import (
    MLP,
    BatchNormLayer,
    Conv3dLayer,
    DataNormLayer,
    DGABlock,
    Module,
    ResidualConvBlock,
    SGABlock,
)
from .tensor import Tensor, kaiming_uniform

CHECKPOINT_MAGIC = b"VFCK"
CHECKPOINT_VERSION = 2
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {code: dtype for dtype, code in _DTYPE_CODES.items()}

ATTENTION_KINDS = ("S", "D", "none")

# Optional input branches in feature order; see ``ModelConfig.branch_shapes``
# and ``ModelConfig.branch_inputs``.
BRANCHES = ("smri", "fc", "pheno")


def _ceil_div(extent: int, stride: int) -> int:
    return -(-extent // stride)


@dataclass(frozen=True)
class ModelConfig(Section):
    """Architecture hyperparameters. ``full()`` and ``desk()`` are the presets."""

    what = "model config"

    input_extent: tuple[int, int, int] = (64, 72, 64)
    stage_channels: tuple[int, ...] = (64, 128, 256, 512)
    stage_blocks: tuple[int, ...] = (2, 2, 2, 2)
    stage_strides: tuple[int, ...] = (1, 2, 2, 1)
    attention_plan: tuple[str, ...] = ("S", "S", "D", "D")
    class_count: int = 2
    stem_channels: int | None = None
    use_data_norm: bool = True
    data_norm_eps: float = 1e-6
    sga_spatial_hidden: int = 256
    sga_channel_expand: int = 2
    dga_heads: int = 8
    dga_ff_expand: int = 4
    dga_pos_std: float = 0.02
    dga_token_budget: int = 4096
    bn_eps: float = 1e-5
    bn_momentum: float = 0.1
    use_smri: bool = False
    use_fc: bool = False
    use_pheno: bool = False
    fc_input_dim: int = 40000
    pheno_input_dim: int = 4
    mlp_hidden: tuple[int, int] = (512, 256)
    mlp_out: int = 128
    scale_preset: str = "full"

    @classmethod
    def full(cls, **overrides) -> "ModelConfig":
        return replace(cls(), **overrides) if overrides else cls()

    @classmethod
    def desk(cls, **overrides) -> "ModelConfig":
        """Small preset with the same topology; runs property tests in seconds."""
        cfg = cls(
            input_extent=(16, 18, 16),
            stage_channels=(8, 16, 32, 64),
            sga_spatial_hidden=32,
            fc_input_dim=64,
            mlp_hidden=(32, 16),
            mlp_out=8,
            scale_preset="desk",
        )
        return replace(cfg, **overrides) if overrides else cfg

    # -- derived values -------------------------------------------------

    def resolved_stem_channels(self) -> int:
        return self.stem_channels or self.stage_channels[0]

    def feature_channels(self) -> int:
        return self.stage_channels[-1] if self.stage_channels else self.resolved_stem_channels()

    def branch_shapes(self) -> dict[str, tuple[int, ...]]:
        """Per-sample input shape of each enabled branch, in ``BRANCHES``
        order: a (1, D, H, W) sMRI volume, or an FC or phenotype vector."""
        shapes = {"smri": (1, *self.input_extent), "fc": (self.fc_input_dim,),
                  "pheno": (self.pheno_input_dim,)}
        return {b: shapes[b] for b in BRANCHES if getattr(self, f"use_{b}")}

    def branch_inputs(self, rec) -> dict:
        """A subject record's input to each enabled branch, None where it has
        none: its sMRI volume, FC vector, and phenotype zeroed where masked."""
        pheno = rec.phenotype
        if pheno is not None:
            pheno = np.asarray(pheno, dtype=np.float32) * (
                1.0 if rec.pheno_mask is None else rec.pheno_mask)
        values = {"smri": None if rec.smri is None else rec.smri.volume[None],
                  "fc": rec.fc_vector, "pheno": pheno}
        return {b: values[b] for b in self.branch_shapes()}

    def feature_width(self) -> int:
        """Classifier input width: pooled channels per volume, ``mlp_out`` per vector."""
        return self.feature_channels() + sum(
            self.feature_channels() if len(shape) > 1 else self.mlp_out
            for shape in self.branch_shapes().values())

    def stage_extents(self) -> list[tuple[int, int, int]]:
        """Spatial extents after the stem and after each stage, in order."""
        e = tuple(_ceil_div(x, 2) for x in self.input_extent)
        chain = [e]
        for s in self.stage_strides:
            e = tuple(_ceil_div(x, s) for x in e)
            chain.append(e)
        return chain

    def validate(self) -> None:
        n = len(self.stage_channels)
        for name, tup in (("stage_blocks", self.stage_blocks),
                          ("stage_strides", self.stage_strides),
                          ("attention_plan", self.attention_plan)):
            if len(tup) != n:
                raise ConfigError(
                    f"{name} has {len(tup)} entries but stage_channels has {n}")
        if any(e < 1 for e in self.input_extent):
            raise ConfigError(f"input_extent must be three positive ints, got {self.input_extent}")
        if any(s not in (1, 2) for s in self.stage_strides):
            raise ConfigError(f"stage_strides must be 1 or 2 each, got {self.stage_strides}")
        if any(b < 1 for b in self.stage_blocks):
            raise ConfigError(f"stage_blocks must be >= 1 each, got {self.stage_blocks}")
        if any(c < 1 for c in self.stage_channels):
            raise ConfigError(f"stage_channels must be positive, got {self.stage_channels}")
        # Written so that NaN fails each comparison too.
        for name, ok, rule in (
                ("stem_channels", self.stem_channels is None or self.stem_channels >= 1,
                 "positive or null"),
                ("sga_spatial_hidden", self.sga_spatial_hidden >= 1, "positive"),
                ("sga_channel_expand", self.sga_channel_expand >= 1, "positive"),
                ("dga_heads", self.dga_heads >= 1, "positive"),
                ("dga_ff_expand", self.dga_ff_expand >= 1, "positive"),
                ("dga_pos_std", self.dga_pos_std >= 0, ">= 0"),
                ("data_norm_eps", self.data_norm_eps >= 0, ">= 0"),
                ("bn_eps", self.bn_eps > 0, "positive"),
                ("bn_momentum", 0 < self.bn_momentum <= 1, "in (0, 1]")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        for i, kind in enumerate(self.attention_plan):
            if kind not in ATTENTION_KINDS:
                raise ConfigError(
                    f"attention_plan[{i}] = {kind!r}; expected one of {ATTENTION_KINDS}")
            if kind == "D" and self.stage_channels[i] % self.dga_heads != 0:
                raise ConfigError(
                    f"stage {i + 1} channels {self.stage_channels[i]} not divisible "
                    f"by {self.dga_heads} heads")
        if self.class_count < 2:
            raise ConfigError(f"class_count must be >= 2, got {self.class_count}")
        if any(h < 1 for h in self.mlp_hidden):
            raise ConfigError(f"mlp_hidden must be two positive widths, got {self.mlp_hidden}")
        for b, shape in self.branch_shapes().items():
            if shape[0] < 1:  # a vector branch's width; an sMRI volume's is 1
                raise ConfigError(f"{b}_input_dim must be positive when use_{b} is set")
        if self.scale_preset not in ("full", "desk"):
            raise ConfigError(f"unknown scale_preset {self.scale_preset!r}")
        if not self.stage_channels and self.stem_channels is None:
            raise ConfigError("zero-stage config requires explicit stem_channels")

    @classmethod
    def from_dict(cls, doc) -> "ModelConfig":
        """Fields missing from ``doc`` take the values of its ``scale_preset``."""
        desk = isinstance(doc, dict) and doc.get("scale_preset") == "desk"
        return super().from_dict(doc, cls.desk() if desk else None)


def parse_attention_plan(text: str) -> tuple[str, ...]:
    """Parse a plan like "S-S-D-D" into the attention_plan tuple."""
    plan = tuple(part.strip() for part in text.split("-"))
    for kind in plan:
        if kind not in ATTENTION_KINDS:
            raise ConfigError(f"bad attention plan entry {kind!r} in {text!r}")
    return plan


class VolumeEncoder(Module):
    """Volume to pooled feature vector: data norm, stem, stages, attention, pool."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        stem_ch = cfg.resolved_stem_channels()
        self.data_norm = DataNormLayer(cfg.data_norm_eps) if cfg.use_data_norm else None
        self.stem = Conv3dLayer(1, stem_ch, 7, 2, 3, rng, dtype)
        self.stem_bn = BatchNormLayer(stem_ch, cfg.bn_eps, cfg.bn_momentum, dtype)
        extents = cfg.stage_extents()
        self.stages: list[list[ResidualConvBlock]] = []
        self.attention: list[SGABlock | DGABlock | None] = []
        in_ch = stem_ch
        for i, out_ch in enumerate(cfg.stage_channels):
            blocks = []
            for b in range(cfg.stage_blocks[i]):
                stride = cfg.stage_strides[i] if b == 0 else 1
                blocks.append(ResidualConvBlock(in_ch, out_ch, stride, rng, dtype,
                                                cfg.bn_eps, cfg.bn_momentum))
                in_ch = out_ch
            self.stages.append(blocks)
            tokens = int(np.prod(extents[i + 1]))
            kind = cfg.attention_plan[i]
            if kind == "S":
                self.attention.append(SGABlock(tokens, out_ch, cfg.sga_spatial_hidden,
                                               cfg.sga_channel_expand, rng, dtype))
            elif kind == "D":
                if tokens > cfg.dga_token_budget:
                    warnings.warn(
                        f"stage {i + 1} self-attention over {tokens} tokens exceeds "
                        f"the {cfg.dga_token_budget}-token budget; cost grows "
                        f"quadratically in token count", RuntimeWarning)
                self.attention.append(DGABlock(tokens, out_ch, cfg.dga_heads,
                                               cfg.dga_ff_expand, cfg.dga_pos_std,
                                               rng, dtype))
            else:
                self.attention.append(None)
        self.out_channels = in_ch

    def _check_input(self, x: Tensor) -> None:
        if x.ndim != 5 or x.shape[1] != 1 or x.shape[2:] != self.cfg.input_extent:
            raise ShapeError(
                f"encoder expects (B, 1, {', '.join(map(str, self.cfg.input_extent))}) "
                f"input, got {tuple(x.shape)}; pad volumes to the model extent first")

    @staticmethod
    def _to_tokens(x: Tensor) -> Tensor:
        b, c, d, h, w = x.shape
        return T.reshape(T.transpose(x, (0, 2, 3, 4, 1)), (b, d * h * w, c))

    @staticmethod
    def _from_tokens(x: Tensor, extents: tuple[int, int, int]) -> Tensor:
        b, n, c = x.shape
        d, h, w = extents
        return T.transpose(T.reshape(x, (b, d, h, w, c)), (0, 4, 1, 2, 3))

    def forward(self, x, training: bool, trace: dict | None = None) -> Tensor:
        x = T._as_tensor(x)
        if x.dtype != np.dtype(self.dtype):
            x = Tensor(x.data.astype(self.dtype), requires_grad=x.requires_grad)
        self._check_input(x)
        if self.data_norm is not None:
            x = self.data_norm.forward(x)
        h = T.relu(self.stem_bn.forward(self.stem.forward(x), training))
        if trace is not None:
            trace["stem"] = h
        for i, blocks in enumerate(self.stages):
            for block in blocks:
                h = block.forward(h, training)
            if trace is not None:
                trace[f"stage{i + 1}.conv"] = h
            attn = self.attention[i]
            if attn is not None:
                tokens = attn.forward(self._to_tokens(h))
                h = self._from_tokens(tokens, h.shape[2:])
            if trace is not None:
                trace[f"stage{i + 1}"] = h
        return T.avg_pool_global(h)

    def children(self):
        out = [("stem", self.stem), ("stem_bn", self.stem_bn)]
        for i, blocks in enumerate(self.stages):
            out += [(f"stage{i + 1}.block{b}", block) for b, block in enumerate(blocks)]
            if self.attention[i] is not None:
                out.append((f"stage{i + 1}.attn", self.attention[i]))
        return out

    def layer_names(self) -> list[str]:
        """Trace keys in network order; ``stageN.conv`` is the stage's conv
        output before any global mixing block, ``stageN`` the stage output."""
        names = ["stem"]
        for i in range(len(self.stages)):
            names += [f"stage{i + 1}.conv", f"stage{i + 1}"]
        return names


class BrainFormer(Module):
    """Classifier over an fMRI volume trunk plus the enabled input branches.

    ``branches`` maps each enabled branch, in ``BRANCHES`` order, to its
    ``VolumeEncoder`` (sMRI) or ``MLP`` (a vector), and ``forward_logits``
    takes each one's batch as the keyword argument of that name. The
    branches' features follow the trunk's, ``cfg.feature_width()`` in all;
    a bias-free linear head maps them to class logits.
    """

    def __init__(self, cfg: ModelConfig, seed: int = 0, dtype=np.float32):
        self.cfg = cfg
        self.dtype = dtype
        rng = np.random.default_rng(seed)
        self.encoder = VolumeEncoder(cfg, rng, dtype)
        self.branches = {
            name: VolumeEncoder(cfg, rng, dtype) if len(shape) > 1
            else MLP(shape[0], cfg.mlp_hidden, cfg.mlp_out, rng, dtype)
            for name, shape in cfg.branch_shapes().items()}
        feat = cfg.feature_width()
        self.classifier_weight = Tensor(
            kaiming_uniform((cfg.class_count, feat), feat, rng, dtype),
            requires_grad=True)

    def forward_logits(self, volumes, training: bool, trace: dict | None = None,
                       smri=None, fc=None, pheno=None) -> Tensor:
        """Class logits; inputs of a disabled branch are ignored."""
        inputs = {"smri": smri, "fc": fc, "pheno": pheno}
        parts = [self.encoder.forward(volumes, training, trace)]
        for name, shape in self.cfg.branch_shapes().items():
            x, branch = inputs[name], self.branches[name]
            if x is None:
                raise DataError(f"{name} branch is enabled but the batch has no {name} input")
            if isinstance(branch, VolumeEncoder):
                parts.append(branch.forward(x, training))
                continue
            x = T._as_tensor(x)
            if x.dtype != np.dtype(self.dtype):
                x = Tensor(x.data.astype(self.dtype), requires_grad=x.requires_grad)
            if x.shape[1:] != shape:
                raise ShapeError(f"{name} branch expects (B, {shape[0]}) input, got {x.shape}")
            parts.append(branch.forward(x))
        feats = parts[0] if len(parts) == 1 else T.concat(parts, axis=-1)
        return T.matmul(feats, T.transpose(self.classifier_weight))

    def forward_probs(self, volumes, **extras) -> Tensor:
        with T.no_grad():
            return T.softmax(self.forward_logits(volumes, training=False, **extras), -1)

    def forward_trace(self, volumes, training: bool = False, **extras):
        trace: dict = {}
        logits = self.forward_logits(volumes, training, trace=trace, **extras)
        return logits, trace

    def children(self):
        return [("encoder", self.encoder)] + [
            (f"{'encoder' if isinstance(m, VolumeEncoder) else 'mlp'}_{name}", m)
            for name, m in self.branches.items()] + [("classifier.weight", self.classifier_weight)]


def forward_volume(model, volume) -> Tensor:
    """Probability vector for one unbatched (D, H, W) volume, eval mode."""
    v = volume.data if isinstance(volume, Tensor) else np.asarray(volume)
    if v.ndim != 3:
        raise ShapeError(f"forward_volume expects a (D, H, W) volume, got {v.shape}")
    probs = model.forward_probs(v[None, None])
    return T.reshape(probs, (model.cfg.class_count,))


# ---------------------------------------------------------------------------
# analytic cost model


BYTES_PER_SCALAR = 4  # float32 activations


@dataclass
class CostReport:
    flops: int
    peak_activation_bytes: int
    parameter_count: int
    per_layer: list = field(default_factory=list)


def estimate_cost(cfg: ModelConfig) -> CostReport:
    """Analytic per-layer multiply-accumulate counts and activation sizes.

    Counts are per single input volume (batch 1). The activation figure is
    the largest single live tensor any layer produces, including attention
    masks. Elementwise work (ReLU, BN, pooling, data norm) is not counted as
    MACs; conv, matmul-style mixing, and attention contractions are. Each
    enabled branch adds a row named after it: a second encoder, or an MLP.
    """
    macs = 0
    params = 0
    peak = 0
    layers = []

    def record(name: str, layer_macs: int, act_bytes: int, layer_params: int):
        nonlocal macs, params, peak
        macs += layer_macs
        params += layer_params
        peak = max(peak, act_bytes)
        layers.append((name, layer_macs, act_bytes, layer_params))

    in_vox = int(np.prod(cfg.input_extent))
    if cfg.use_data_norm:
        record("data_norm", 0, in_vox * BYTES_PER_SCALAR, 0)
    extents = cfg.stage_extents()
    stem_ch = cfg.resolved_stem_channels()
    stem_vox = int(np.prod(extents[0]))
    record("stem", stem_ch * 1 * 7 ** 3 * stem_vox,
           stem_ch * stem_vox * BYTES_PER_SCALAR,
           stem_ch * 343 + 2 * stem_ch)

    in_ch = stem_ch
    for i, out_ch in enumerate(cfg.stage_channels):
        vox = int(np.prod(extents[i + 1]))
        act = out_ch * vox * BYTES_PER_SCALAR
        for b in range(cfg.stage_blocks[i]):
            stride = cfg.stage_strides[i] if b == 0 else 1
            block_macs = out_ch * in_ch * 27 * vox + out_ch * out_ch * 27 * vox
            block_params = (out_ch * in_ch * 27 + out_ch * out_ch * 27 + 4 * out_ch)
            if stride != 1 or in_ch != out_ch:
                block_macs += out_ch * in_ch * vox
                block_params += out_ch * in_ch + 2 * out_ch
            record(f"stage{i + 1}.block{b}", block_macs, act, block_params)
            in_ch = out_ch
        kind = cfg.attention_plan[i]
        n = vox
        c = out_ch
        if kind == "S":
            hs = cfg.sga_spatial_hidden
            hc = cfg.sga_channel_expand * c
            attn_macs = 2 * n * c * (hs + hc)
            attn_params = 2 * n * hs + 2 * c * hc
            record(f"stage{i + 1}.attn[S]", attn_macs, act, attn_params)
        elif kind == "D":
            heads = cfg.dga_heads
            hd = c // heads
            ff = cfg.dga_ff_expand * c
            attn_macs = (n * c * 3 * hd * heads          # qkv projections
                         + 2 * n * n * hd * heads        # scores and weighted sum
                         + n * heads * hd * c            # output projection
                         + 2 * n * c * ff)               # feed-forward
            mask_bytes = heads * n * n * BYTES_PER_SCALAR
            attn_params = (n * c + heads * c * 3 * hd + heads * hd * c
                           + c * ff + ff + ff * c + c)
            record(f"stage{i + 1}.attn[D]", attn_macs, max(act, mask_bytes), attn_params)

    record("avg_pool", 0, cfg.feature_channels() * BYTES_PER_SCALAR, 0)
    encoder = (macs, peak, params)  # the totals so far are the encoder's
    for name, shape in cfg.branch_shapes().items():
        if len(shape) > 1:
            record(name, *encoder)
        else:
            dims = (shape[0], *cfg.mlp_hidden, cfg.mlp_out)
            pairs = list(zip(dims, dims[1:]))
            record(name, sum(a * b for a, b in pairs), max(dims[1:]) * BYTES_PER_SCALAR,
                   sum(a * b + b for a, b in pairs))
    feat = cfg.feature_width()
    record("classifier", feat * cfg.class_count,
           cfg.class_count * BYTES_PER_SCALAR, feat * cfg.class_count)
    return CostReport(flops=2 * macs, peak_activation_bytes=peak,
                      parameter_count=params, per_layer=layers)


# ---------------------------------------------------------------------------
# checkpoint I/O


def _state_entries(model) -> list[tuple[str, np.ndarray]]:
    out = [(name, t.data) for name, t in model.params()]
    for name, layer in model.norm_layers():
        if layer.stats.initialized():
            out.append((f"{name}.running_mean", np.asarray(layer.stats.mean)))
            out.append((f"{name}.running_var", np.asarray(layer.stats.var)))
    return out


def _tensor_record(name: str, arr: np.ndarray) -> tuple[bytes, bytes]:
    arr = np.ascontiguousarray(arr)
    name_bytes = name.encode("utf-8")
    prefix = struct.pack(f"<H{len(name_bytes)}sBB{arr.ndim}I", len(name_bytes), name_bytes,
                         _DTYPE_CODES[arr.dtype], arr.ndim, *arr.shape)
    return prefix, arr.tobytes()


def save_checkpoint(path, meta: dict, arrays: list[tuple[str, np.ndarray]]) -> None:
    """Write a checkpoint, one record at a time; an array of a dtype the
    format lacks is refused before the file is opened."""
    for name, arr in arrays:
        if arr.dtype not in _DTYPE_CODES:
            raise CheckpointError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    header = struct.pack(f"<II{len(meta_bytes)}sI", CHECKPOINT_VERSION, len(meta_bytes),
                         meta_bytes, len(arrays))
    write_container(path, CHECKPOINT_MAGIC, header,
                    (_tensor_record(name, arr) for name, arr in arrays))


def load_checkpoint(path) -> tuple[dict, dict[str, np.ndarray]]:
    """Read a checkpoint's metadata and named arrays; a tensor holding NaN or
    ±inf is refused like a corrupt one."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise CheckpointError(f"cannot read checkpoint {path}: {err}") from None
    reader = ContainerReader(blob, CHECKPOINT_MAGIC, CheckpointError, "checkpoint")
    version, = reader.unpack("I", "version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version}; this build reads version "
            f"{CHECKPOINT_VERSION} only, so retrain the model to get a current checkpoint")
    meta_len, = reader.unpack("I", "metadata length")
    try:
        meta = json.loads(reader.take(meta_len, "metadata").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise CheckpointError(f"corrupt checkpoint metadata: {err}") from None
    if not isinstance(meta, dict):
        raise CheckpointError(
            f"checkpoint metadata must be a JSON object, got {type(meta).__name__}")
    count, = reader.unpack("I", "tensor count")
    arrays: dict[str, np.ndarray] = {}
    for _ in range(count):
        name_len, = reader.unpack("H", "tensor name length")
        at = reader.offset
        try:
            name = reader.take(name_len, "tensor name").decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError("tensor name is not valid UTF-8", at) from None
        if name in arrays:
            raise CheckpointError(f"duplicate tensor {name!r}", at)
        code, ndim = reader.unpack("BB", "tensor header")
        if code not in _CODE_DTYPES:
            raise CheckpointError(f"tensor {name!r}: unknown dtype code {code}")
        shape = reader.unpack(f"{ndim}I", "tensor shape")
        dtype = _CODE_DTYPES[code]
        nbytes = math.prod(shape) * dtype.itemsize  # Python ints: no int64 wrap
        payload = reader.payload(nbytes, f"tensor {name!r} payload")
        arr = np.frombuffer(payload, dtype=dtype).reshape(shape)
        if not np.isfinite(arr).all():
            raise CheckpointError(f"tensor {name!r} holds non-finite values")
        arrays[name] = arr.copy()
    reader.finish()
    return meta, arrays


def save_model(model, path, extra_meta: dict | None = None) -> None:
    meta = {
        "kind": "brainformer",
        "config": model.cfg.to_dict(),
        "format": "volformer-checkpoint",
    }
    if extra_meta:
        meta.update(extra_meta)
    save_checkpoint(path, meta, _state_entries(model))


def load_model(path):
    """Rebuild a model from a checkpoint; forward passes are bit-identical."""
    meta, arrays = load_checkpoint(path)
    if "config" not in meta:
        raise CheckpointError("checkpoint metadata is missing the model config")
    try:
        cfg = ModelConfig.from_dict(meta["config"])
    except ConfigError as err:
        raise CheckpointError(
            f"checkpoint {path} stores an invalid model config: {err}") from None
    model = BrainFormer(cfg)
    load_state(model, arrays)
    return model, meta


def load_state(model, arrays: dict[str, np.ndarray]) -> None:
    remaining = dict(arrays)
    for name, t in model.params():
        if name not in remaining:
            raise CheckpointError(f"checkpoint is missing parameter {name!r}")
        arr = remaining.pop(name)
        if arr.shape != t.data.shape:
            raise CheckpointError(
                f"parameter {name!r} has shape {arr.shape}, expected {t.data.shape}")
        t.data = arr.astype(t.data.dtype)
    for name, layer in model.norm_layers():
        mean_key = f"{name}.running_mean"
        var_key = f"{name}.running_var"
        if mean_key in remaining or var_key in remaining:
            if not (mean_key in remaining and var_key in remaining):
                raise CheckpointError(f"running stats for {name!r} are incomplete")
            layer.stats.mean = remaining.pop(mean_key).astype(np.float64)
            layer.stats.var = remaining.pop(var_key).astype(np.float64)
    if remaining:
        raise CheckpointError(
            f"checkpoint contains unknown tensors: {sorted(remaining)[:4]}")
