"""Volume I/O, artifact writes, manifests, padding, FC extraction, folds, synthetic data.

Volume files are a little-endian container: magic ``VFV1``, u32 rank, u32
extents, raw float32 row-major payload, trailing u32 CRC32 of the payload.
Manifests are CSV with header ``subject_id,site_id,label,modality,path,
pheno_0..pheno_m``; volume paths are relative to the manifest's directory,
``modality`` is ``fmri``, ``smri`` or ``fc``, and empty phenotype cells are
treated as masked-absent.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import Section
from .errors import ConfigError, DataError, ParseError, PlanError

VOLUME_MAGIC = b"VFV1"
MAX_RANK = 8


# ---------------------------------------------------------------------------
# domain types


@dataclass
class VolumeSample:
    subject_id: str
    site_id: str
    label: int
    modality: str
    volume: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        if self.modality not in ("fmri", "smri"):
            raise DataError(f"unknown modality {self.modality!r}")
        if self.volume.size == 0 or any(e < 1 for e in self.volume.shape):
            raise DataError(f"volume extents must be positive, got {self.volume.shape}")
        if self.label < 0:
            raise DataError(f"label must be a class index, got {self.label}")


@dataclass
class SubjectRecord:
    subject_id: str
    site_id: str
    label: int
    fmri_volumes: list[VolumeSample] = field(default_factory=list)
    smri: VolumeSample | None = None
    fc_vector: np.ndarray | None = None
    phenotype: np.ndarray | None = None
    pheno_mask: np.ndarray | None = None

    def validate(self) -> None:
        for s in self.fmri_volumes:
            if s.subject_id != self.subject_id or s.label != self.label:
                raise DataError(
                    f"volume of subject {s.subject_id!r} (label {s.label}) filed "
                    f"under subject {self.subject_id!r} (label {self.label})")
        for name, vector in (("fc", self.fc_vector), ("phenotype", self.phenotype)):
            if vector is not None and not np.isfinite(vector).all():
                raise DataError(f"{name} entries for {self.subject_id!r} are non-finite")
        if self.fc_vector is not None:
            fc = np.asarray(self.fc_vector)
            if fc.min(initial=0.0) < -1 - 1e-9 or fc.max(initial=0.0) > 1 + 1e-9:
                raise DataError(
                    f"fc entries for {self.subject_id!r} fall outside [-1, 1]")


@dataclass
class FoldPlan:
    fold_count: int
    assignments: dict[str, int]

    def split(self, records: list[SubjectRecord], fold: int
              ) -> tuple[list[SubjectRecord], list[SubjectRecord]]:
        if not 0 <= fold < self.fold_count:
            raise PlanError(f"fold {fold} out of range for {self.fold_count} folds")
        train, test = [], []
        for rec in records:
            if rec.subject_id not in self.assignments:
                raise PlanError(f"subject {rec.subject_id!r} is not in the fold plan")
            (test if self.assignments[rec.subject_id] == fold else train).append(rec)
        return train, test


@dataclass(frozen=True)
class SyntheticSpec(Section):
    """Multi-site synthetic volumes with a planted class-specific blob.

    Each subject has one smooth underlying volume (filtered Gaussian noise
    plus a Gaussian-falloff blob at the class center); each of the subject's
    volumes adds i.i.d. jitter (sigma = jitter_fraction * noise_sigma); each
    site applies an affine intensity transform gain*v + offset whose
    parameters are spread evenly across the configured ranges. Subjects with
    the same class and index at different sites share the underlying volume,
    so site pairs differ only by the affine map.
    """

    what = "synthetic spec"

    site_count: int = 2
    class_count: int = 2
    volume_extent: tuple[int, int, int] = (16, 18, 16)
    blob_centers: tuple[tuple[int, int, int], ...] = ((4, 4, 4), (11, 13, 11))
    blob_radius: tuple[float, ...] = (2.0, 2.0)
    blob_amplitude: float = 5.0
    noise_sigma: float = 1.0
    smoothness: float = 1.5
    jitter_fraction: float = 1.0
    gain_range: tuple[float, float] = (0.5, 2.0)
    offset_range: tuple[float, float] = (-3.0, 3.0)
    subjects_per_class_per_site: int = 5
    volumes_per_subject: int = 6
    with_smri: bool = False
    with_fc: bool = False
    fc_parcels: int = 8
    with_pheno: bool = False
    pheno_dim: int = 4
    pheno_signal: float = 0.0
    seed: int = 0

    def validate(self) -> None:
        # Written so that NaN fails each comparison too.
        for name, ok, rule in (
                ("site_count", self.site_count >= 1, ">= 1"),
                ("class_count", self.class_count >= 2, ">= 2"),
                ("volume_extent", all(e >= 2 for e in self.volume_extent), ">= 2 each"),
                ("blob_amplitude", self.blob_amplitude > 0, "> 0"),
                ("blob_radius", all(r > 0 for r in self.blob_radius), "> 0 each"),
                ("noise_sigma", self.noise_sigma >= 0, ">= 0"),
                ("smoothness", self.smoothness >= 0, ">= 0"),
                ("jitter_fraction", self.jitter_fraction >= 0, ">= 0"),
                ("gain_range", 0 < self.gain_range[0] <= self.gain_range[1],
                 "positive and ordered"),
                ("offset_range", self.offset_range[0] <= self.offset_range[1], "ordered"),
                ("subjects_per_class_per_site", self.subjects_per_class_per_site >= 1, ">= 1"),
                ("volumes_per_subject", self.volumes_per_subject >= 1, ">= 1"),
                ("seed", self.seed >= 0, ">= 0")):
            if not ok:
                raise ConfigError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        if len(self.blob_centers) != self.class_count:
            raise ConfigError(
                f"{self.class_count} classes need {self.class_count} blob centers, "
                f"got {len(self.blob_centers)}")
        if len(self.blob_radius) != self.class_count:
            raise ConfigError("blob_radius needs one entry per class")
        for c, center in enumerate(self.blob_centers):
            if any(not 0 <= x < e for x, e in zip(center, self.volume_extent)):
                raise ConfigError(
                    f"class {c} blob center {center} outside volume {self.volume_extent}")
        if self.with_fc and self.fc_parcels < 2:
            raise ConfigError("fc_parcels must be >= 2 when with_fc is set")
        if self.with_pheno and self.pheno_dim < 1:
            raise ConfigError("pheno_dim must be >= 1 when with_pheno is set")


# ---------------------------------------------------------------------------
# binary containers and the volume file format


@contextmanager
def replacing(path: Path):
    """Yield a temporary path beside ``path`` to write to; move it onto
    ``path`` when the body returns and remove it when the body raises, so an
    interrupted write never leaves a truncated artifact under its final name."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header: list, rows) -> None:
    """Write a CSV artifact in the default dialect through ``replacing``."""
    with replacing(Path(path)) as tmp, open(tmp, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_json(path, doc) -> None:
    """Write a JSON artifact, indented by 2 with a trailing newline, through
    ``replacing``."""
    with replacing(Path(path)) as tmp:
        tmp.write_text(json.dumps(doc, indent=2) + "\n")


def write_container(path, magic: bytes, header: bytes, records) -> None:
    """Write ``magic``, ``header``, then per ``(prefix, payload)`` record the
    prefix, the payload and the payload's u32 CRC32."""
    with open(path, "wb") as fh:
        fh.write(magic)
        fh.write(header)
        for prefix, payload in records:
            fh.write(prefix)
            fh.write(payload)
            fh.write(struct.pack("<I", zlib.crc32(payload)))


class ContainerReader:
    """Bounds-checked little-endian reader over one container file's bytes.

    Checks the magic on construction. Every fault raises ``error(message,
    byte_offset)``, so each format keeps its own exception type.
    """

    def __init__(self, blob: bytes, magic: bytes, error, label: str):
        self.blob, self.offset, self.error, self.label = blob, 0, error, label
        got = self.take(len(magic), "magic")
        if got != magic:
            raise error(f"bad {label} magic {got!r}", 0)

    def take(self, n: int, what: str) -> bytes:
        if self.offset + n > len(self.blob):
            raise self.error(f"{self.label} truncated while reading {what}", self.offset)
        self.offset += n
        return self.blob[self.offset - n:self.offset]

    def unpack(self, fmt: str, what: str) -> tuple:
        fmt = "<" + fmt
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def payload(self, n: int, what: str) -> bytes:
        """``n`` payload bytes followed by their u32 CRC32, which must match."""
        data = self.take(n, what)
        stored, = self.unpack("I", f"{what} checksum")
        if zlib.crc32(data) != stored:
            raise self.error(f"{what} checksum mismatch", self.offset - 4)
        return data

    def finish(self) -> None:
        if self.offset != len(self.blob):
            raise self.error(f"{len(self.blob) - self.offset} trailing bytes after "
                             f"the {self.label} payload", self.offset)


def write_volume(path, array: np.ndarray) -> None:
    arr = np.ascontiguousarray(np.asarray(array, dtype=np.float32))
    if arr.ndim < 1 or arr.ndim > MAX_RANK:
        raise DataError(f"volume rank {arr.ndim} outside 1..{MAX_RANK}")
    header = struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape)
    write_container(path, VOLUME_MAGIC, header, [(b"", arr.tobytes())])


def _require_finite(arr: np.ndarray, source: str) -> np.ndarray:
    """Return ``arr``; raise ``DataError`` naming ``source`` if it holds NaN or ±Inf."""
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))
        raise DataError(f"{source} holds {len(bad)} non-finite values "
                        f"(NaN or Inf), the first at index {tuple(bad[0].tolist())}")
    return arr


def read_volume(path) -> np.ndarray:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise DataError(f"cannot read volume file {path}: {err}") from None
    reader = ContainerReader(blob, VOLUME_MAGIC, ParseError, "volume file")
    rank, = reader.unpack("I", "rank")
    if not 1 <= rank <= MAX_RANK:
        raise ParseError(f"volume rank {rank} outside 1..{MAX_RANK}", 4)
    shape = reader.unpack(f"{rank}I", "extents")
    if any(e < 1 for e in shape):
        raise ParseError(f"non-positive extent in {shape}", 8)
    payload = reader.payload(4 * math.prod(shape), "payload")  # Python ints: no wrap
    reader.finish()
    arr = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
    return _require_finite(arr, f"volume file {path}")


def load_volume(path, subject_id: str = "", site_id: str = "", label: int = 0,
                modality: str = "fmri") -> VolumeSample:
    arr = read_volume(path)
    degenerate = bool(arr.max() == arr.min())
    return VolumeSample(subject_id, site_id, label, modality, arr, degenerate)


# ---------------------------------------------------------------------------
# padding


def pad_volume(v, target: tuple[int, int, int] = (64, 72, 64),
               allow_crop: bool = False) -> np.ndarray:
    """Zero-pad a volume to ``target``, centered with floor offsets.

    Oversized axes are an error by default; ``allow_crop=True`` opts in to a
    centered crop for data whose extent exceeds the target on some axis.
    """
    arr = np.asarray(v.data if hasattr(v, "data") else v, dtype=np.float32)
    if arr.ndim != len(target):
        raise DataError(f"volume rank {arr.ndim} does not match target rank {len(target)}")
    for axis, (src, dst) in enumerate(zip(arr.shape, target)):
        if src > dst and not allow_crop:
            raise DataError(
                f"volume extent {src} exceeds padding target {dst} on axis {axis}; "
                f"padding cannot shrink (pass allow_crop to center-crop instead)")
    if allow_crop:
        slices = []
        for src, dst in zip(arr.shape, target):
            if src > dst:
                lo = (src - dst) // 2
                slices.append(slice(lo, lo + dst))
            else:
                slices.append(slice(None))
        arr = arr[tuple(slices)]
    out = np.zeros(target, dtype=np.float32)
    offsets = tuple((dst - src) // 2 for src, dst in zip(arr.shape, target))
    region = tuple(slice(o, o + s) for o, s in zip(offsets, arr.shape))
    out[region] = arr
    return out


# ---------------------------------------------------------------------------
# functional connectivity


def compute_fc(series: np.ndarray, parcellation: np.ndarray, p: int
               ) -> tuple[np.ndarray, list[int]]:
    """Pearson correlation (population covariance) between ROI-mean series.

    Returns the p x p matrix and the 1-based ids of zero-variance ROIs whose
    rows/columns (including diagonal) were zeroed.
    """
    series = np.asarray(series, dtype=np.float64)
    parcellation = np.asarray(parcellation)
    if series.ndim != 4:
        raise DataError(f"series must be (T, D, H, W), got {series.shape}")
    if series.shape[0] < 3:
        raise DataError(f"need at least 3 time points, got {series.shape[0]}")
    if parcellation.shape != series.shape[1:]:
        raise DataError(
            f"parcellation shape {parcellation.shape} does not match volume "
            f"extents {series.shape[1:]}")
    t = series.shape[0]
    flat = series.reshape(t, -1)
    labels = parcellation.reshape(-1)
    roi_series = np.zeros((t, p))
    for roi in range(1, p + 1):
        mask = labels == roi
        if not mask.any():
            raise DataError(f"ROI id {roi} has no voxels in the parcellation")
        roi_series[:, roi - 1] = flat[:, mask].mean(axis=1)
    return _pearson(roi_series)


def _pearson(series: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Correlation between the columns of a (T, p) float64 series; rows and
    columns of zero-variance columns are zeroed and their 1-based ids listed."""
    centered = series - series.mean(axis=0, keepdims=True)
    std = np.sqrt((centered ** 2).mean(axis=0))
    flagged = [i + 1 for i in np.nonzero(std == 0)[0]]
    normed = centered / np.where(std == 0, 1.0, std)
    fc = (normed.T @ normed) / series.shape[0]
    alive = (std > 0).astype(np.float64)
    fc *= np.outer(alive, alive)
    np.fill_diagonal(fc, alive)
    return np.clip(fc, -1.0, 1.0).astype(np.float32), flagged


# ---------------------------------------------------------------------------
# fold planning


def plan_folds(records: list[SubjectRecord], k: int = 5, seed: int = 0) -> FoldPlan:
    """Stratified subject-level fold assignment, deterministic under seed."""
    if k < 2:
        raise PlanError(f"need at least 2 folds, got {k}")
    by_class: dict[int, list[str]] = {}
    seen: dict[str, int] = {}
    for rec in records:
        if rec.subject_id in seen:
            if seen[rec.subject_id] != rec.label:
                raise PlanError(f"subject {rec.subject_id!r} appears with two labels")
            continue
        seen[rec.subject_id] = rec.label
        by_class.setdefault(rec.label, []).append(rec.subject_id)
    assignments: dict[str, int] = {}
    rng = np.random.default_rng(seed)
    for label in sorted(by_class):
        subjects = sorted(by_class[label])
        if len(subjects) < k:
            raise PlanError(
                f"class {label} has {len(subjects)} subjects, fewer than {k} folds")
        order = rng.permutation(len(subjects))
        for slot, idx in enumerate(order):
            assignments[subjects[idx]] = slot % k
    return FoldPlan(fold_count=k, assignments=assignments)


def plan_site_holdout(records: list[SubjectRecord], train_sites, test_sites) -> FoldPlan:
    """One-fold plan: ``test_sites`` subjects are tested (fold 0), those of
    ``train_sites`` only trained on (fold -1). Subjects of other sites are not
    in the plan; drop them before splitting."""
    sites = sorted({r.site_id for r in records})
    missing = [s for s in (*train_sites, *test_sites) if s not in sites]
    if missing:
        raise PlanError(f"sites {missing} not present in the data; found {sites}")
    assignments = {r.subject_id: 0 if r.site_id in test_sites else -1
                   for r in records if r.site_id in (*train_sites, *test_sites)}
    if not {0, -1} <= set(assignments.values()):
        raise PlanError("site holdout produced an empty train or test side")
    return FoldPlan(fold_count=1, assignments=assignments)


# ---------------------------------------------------------------------------
# synthetic generation


def _site_affines(spec: SyntheticSpec) -> list[tuple[float, float]]:
    """Per-site (gain, offset), spread evenly across the configured ranges."""
    out = []
    for i in range(spec.site_count):
        frac = i / max(1, spec.site_count - 1)
        gain = spec.gain_range[0] + frac * (spec.gain_range[1] - spec.gain_range[0])
        offset = spec.offset_range[0] + frac * (spec.offset_range[1] - spec.offset_range[0])
        out.append((gain, offset))
    return out


def _blob(spec: SyntheticSpec, label: int) -> np.ndarray:
    center = spec.blob_centers[label]
    radius = spec.blob_radius[label]
    grids = np.meshgrid(*[np.arange(e, dtype=np.float64) for e in spec.volume_extent],
                        indexing="ij")
    r2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    return (spec.blob_amplitude * np.exp(-r2 / (2.0 * radius ** 2))).astype(np.float64)


def _smooth_noise(rng: np.random.Generator, spec: SyntheticSpec) -> np.ndarray:
    from scipy.ndimage import gaussian_filter  # only synthesis needs scipy
    noise = rng.normal(0.0, spec.noise_sigma, size=spec.volume_extent)
    if spec.smoothness > 0 and spec.noise_sigma > 0:
        noise = gaussian_filter(noise, sigma=spec.smoothness)
    return noise


def generate_synthetic(spec: SyntheticSpec) -> list[SubjectRecord]:
    """Deterministic multi-site cohort with a planted class-specific blob; a
    volume that overflows float32 (a huge ``blob_amplitude``) is a DataError."""
    affines = _site_affines(spec)
    records: list[SubjectRecord] = []
    jitter_sigma = spec.jitter_fraction * spec.noise_sigma
    for site in range(spec.site_count):
        gain, offset = affines[site]
        site_id = f"site{site:02d}"
        for label in range(spec.class_count):
            blob = _blob(spec, label)
            for idx in range(spec.subjects_per_class_per_site):
                subject_id = f"s{site:02d}c{label}n{idx:03d}"
                base_rng = np.random.default_rng((spec.seed, label, idx, 0))
                underlying = _smooth_noise(base_rng, spec) + blob
                volumes = []
                for vol in range(spec.volumes_per_subject):
                    vol_rng = np.random.default_rng((spec.seed, label, idx, 1, vol))
                    jitter = (vol_rng.normal(0.0, jitter_sigma, size=spec.volume_extent)
                              if jitter_sigma > 0 else 0.0)
                    raw = gain * (underlying + jitter) + offset
                    arr = _require_finite(raw.astype(np.float32),
                                         f"synthetic volume {vol} of subject {subject_id}")
                    volumes.append(VolumeSample(
                        subject_id, site_id, label, "fmri", arr,
                        degenerate=bool(arr.max() == arr.min())))
                record = SubjectRecord(subject_id, site_id, label, volumes)
                if spec.with_smri:
                    smri_rng = np.random.default_rng((spec.seed, label, idx, 2))
                    raw = gain * _smooth_noise(smri_rng, spec) + offset
                    arr = _require_finite(raw.astype(np.float32),
                                         f"synthetic sMRI volume of subject {subject_id}")
                    record.smri = VolumeSample(subject_id, site_id, label, "smri", arr)
                if spec.with_fc:
                    fc_rng = np.random.default_rng((spec.seed, label, idx, 3))
                    fc, _ = _pearson(fc_rng.normal(size=(24, spec.fc_parcels)))
                    record.fc_vector = fc.reshape(-1)
                if spec.with_pheno:
                    ph_rng = np.random.default_rng((spec.seed, label, idx, 4))
                    values = ph_rng.normal(size=spec.pheno_dim)
                    if spec.pheno_signal > 0:
                        values[0] += (label - (spec.class_count - 1) / 2.0) * spec.pheno_signal
                    record.phenotype = values.astype(np.float32)
                    record.pheno_mask = np.ones(spec.pheno_dim, dtype=np.float32)
                record.validate()
                records.append(record)
    return records


# ---------------------------------------------------------------------------
# manifests


def write_dataset(records: list[SubjectRecord], out_dir) -> Path:
    """Write volumes, then a manifest CSV naming them; returns the manifest path."""
    out_dir = Path(out_dir)
    vol_dir = out_dir / "volumes"
    vol_dir.mkdir(parents=True, exist_ok=True)
    pheno_dim = 0
    for rec in records:
        if rec.phenotype is not None:
            pheno_dim = max(pheno_dim, len(rec.phenotype))
    header = ["subject_id", "site_id", "label", "modality", "path"]
    header += [f"pheno_{i}" for i in range(pheno_dim)]

    def pheno_cells(rec, first_row: bool) -> list[str]:
        if not first_row or rec.phenotype is None:
            return [""] * pheno_dim
        cells = []
        for i in range(pheno_dim):
            present = (i < len(rec.phenotype)
                       and (rec.pheno_mask is None or rec.pheno_mask[i] > 0))
            cells.append(repr(float(rec.phenotype[i])) if present else "")
        return cells

    rows = []
    for rec in records:
        files = [(f"fmri{i:02d}", "fmri", sample.volume)
                 for i, sample in enumerate(rec.fmri_volumes)]
        if rec.smri is not None:
            files.append(("smri", "smri", rec.smri.volume))
        if rec.fc_vector is not None:
            p = int(round(len(rec.fc_vector) ** 0.5))
            files.append(("fc", "fc", rec.fc_vector.reshape(p, p)))
        for row, (suffix, modality, array) in enumerate(files):
            name = f"{rec.subject_id}_{suffix}.vfv"
            write_volume(vol_dir / name, array)
            rows.append([rec.subject_id, rec.site_id, rec.label, modality,
                         f"volumes/{name}"] + pheno_cells(rec, row == 0))
    manifest = out_dir / "manifest.csv"
    write_csv(manifest, header, rows)
    return manifest


def load_manifest(manifest_path) -> list[SubjectRecord]:
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise DataError(f"manifest not found: {manifest_path}")
    base = manifest_path.parent
    with open(manifest_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"manifest {manifest_path} is empty") from None
        required = ["subject_id", "site_id", "label", "modality", "path"]
        if header[:5] != required:
            raise DataError(
                f"manifest header must start with {','.join(required)}, got {header[:5]}")
        pheno_cols = header[5:]
        for i, name in enumerate(pheno_cols):
            if name != f"pheno_{i}":
                raise DataError(f"phenotype columns must be pheno_0..; got {name!r}")
        order: list[str] = []
        by_subject: dict[str, SubjectRecord] = {}
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DataError(
                    f"manifest line {lineno}: expected {len(header)} cells, got {len(row)}")
            subject_id, site_id, label_text, modality, rel_path = row[:5]
            try:
                label = int(label_text)
            except ValueError:
                raise DataError(
                    f"manifest line {lineno}: label {label_text!r} is not an int") from None
            rec = by_subject.get(subject_id)
            if rec is None:
                rec = SubjectRecord(subject_id, site_id, label)
                by_subject[subject_id] = rec
                order.append(subject_id)
            elif rec.label != label or rec.site_id != site_id:
                raise DataError(
                    f"manifest line {lineno}: subject {subject_id!r} changes "
                    f"label/site mid-manifest")
            full = base / rel_path
            if modality in ("fmri", "smri"):
                sample = load_volume(full, subject_id, site_id, label, modality)
                if modality == "fmri":
                    rec.fmri_volumes.append(sample)
                else:
                    rec.smri = sample
            elif modality == "fc":
                fc = read_volume(full)
                if fc.ndim != 2 or fc.shape[0] != fc.shape[1]:
                    raise DataError(
                        f"manifest line {lineno}: fc file must hold a square matrix, "
                        f"got shape {fc.shape}")
                rec.fc_vector = fc.reshape(-1)
            else:
                raise DataError(f"manifest line {lineno}: unknown modality {modality!r}")
            cells = row[5:]
            if any(c.strip() for c in cells):
                values = np.zeros(len(cells), dtype=np.float32)
                mask = np.zeros(len(cells), dtype=np.float32)
                for i, cell in enumerate(cells):
                    if cell.strip():
                        try:
                            # Checked as stored: 1e40 parses, then is inf in float32.
                            with np.errstate(over="ignore"):
                                values[i] = float(cell)
                        except ValueError:
                            raise DataError(
                                f"manifest line {lineno}: bad phenotype cell {cell!r}"
                            ) from None
                        if not np.isfinite(values[i]):
                            raise DataError(f"manifest line {lineno}: non-finite "
                                            f"phenotype cell pheno_{i} = {cell!r}")
                        mask[i] = 1.0
                rec.phenotype = values
                rec.pheno_mask = mask
    records = [by_subject[sid] for sid in order]
    for rec in records:
        rec.validate()
    return records
