"""Volume I/O, artifact writes, manifests, padding, FC extraction, folds, synthetic data.

Volume files are a little-endian container: magic ``VFV2``, u32 rank, u32
extents, raw float32 row-major payload, and a trailing u32 CRC32 of every
byte before it; a ``VFV1`` file is refused with a request to regenerate it.
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

VOLUME_MAGIC = b"VFV2"
MAX_RANK = 8


# ---------------------------------------------------------------------------
# domain types


@dataclass
class VolumeSample:
    """One fMRI or sMRI volume; its record holds the subject, site and label."""
    volume: np.ndarray


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
    each volume's jitter and the sMRI noise, each under the site's affine
    map, and have identical FC and phenotype vectors, so site pairs differ
    only by the affine map.
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
                ("pheno_signal", self.pheno_signal >= 0, ">= 0"),
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


def write_container(path, magic: bytes, parts) -> None:
    """Write ``magic``, each byte string of ``parts`` in turn, then a u32 CRC32
    of every byte before it, kept running so nothing is joined in memory."""
    with open(path, "wb") as fh:
        fh.write(magic)
        crc = zlib.crc32(magic)
        for part in parts:
            fh.write(part)
            crc = zlib.crc32(part, crc)
        fh.write(struct.pack("<I", crc))


class ContainerReader:
    """Bounds-checked little-endian reader over one container file, read whole.

    The trailing u32 CRC32 ends the data for ``take`` and ``finish``.
    Construction checks the format's identity, then that CRC, before any other
    field is read, so a damaged byte anywhere reads as corrupt while an older
    file is still named as one: a magic in ``retired``, or a u32 ``version``
    other than the current one, is refused with ``remedy``. Every fault raises
    ``error(message, byte_offset)``, so each format keeps its own exception type.
    """

    def __init__(self, path, magic: bytes, error, label: str, remedy: str,
                 version: int | None = None, retired: tuple[bytes, ...] = ()):
        self.error, self.label, self.offset = error, label, 0
        try:
            with open(path, "rb") as fh:
                self.blob = memoryview(fh.read())
        except OSError as err:
            raise error(f"cannot read {label} {path}: {err}") from None
        self.end = len(self.blob) - 4
        got = bytes(self.take(len(magic), "magic"))
        if got in retired:
            raise error(f"{label} format {got.decode()} is no longer read; {remedy}", 0)
        if got != magic:
            raise error(f"bad {label} magic {got!r}", 0)
        if version is not None:
            got, = self.unpack("I", "version")
            if got != version:
                raise error(f"unsupported {label} version {got}; this build reads "
                            f"version {version} only, so {remedy}", len(magic))
        stored, = struct.unpack_from("<I", self.blob, self.end)
        if zlib.crc32(self.blob[:self.end]) != stored:
            raise error(f"{label} checksum mismatch", self.end)

    def take(self, n: int, what: str) -> memoryview:
        if self.offset + n > self.end:
            raise self.error(f"{self.label} truncated while reading {what}", self.offset)
        self.offset += n
        return self.blob[self.offset - n:self.offset]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt), what))

    def finish(self) -> None:
        if self.offset != self.end:
            raise self.error(f"{self.end - self.offset} trailing bytes after "
                             f"the {self.label} payload", self.offset)


def write_volume(path, array: np.ndarray) -> None:
    arr = np.ascontiguousarray(np.asarray(array, dtype=np.float32))
    if arr.ndim < 1 or arr.ndim > MAX_RANK:
        raise DataError(f"volume rank {arr.ndim} outside 1..{MAX_RANK}")
    write_container(path, VOLUME_MAGIC,
                    [struct.pack(f"<I{arr.ndim}I", arr.ndim, *arr.shape), arr.tobytes()])


def _require_finite(arr: np.ndarray, source: str) -> np.ndarray:
    """Return ``arr``; raise ``DataError`` naming ``source`` if it holds NaN or ±Inf."""
    if not np.isfinite(arr).all():
        bad = np.argwhere(~np.isfinite(arr))
        raise DataError(f"{source} holds {len(bad)} non-finite values "
                        f"(NaN or Inf), the first at index {tuple(bad[0].tolist())}")
    return arr


def read_volume(path) -> np.ndarray:
    reader = ContainerReader(path, VOLUME_MAGIC, ParseError, "volume file",
                             "regenerate the volume", retired=(b"VFV1",))
    rank, = reader.unpack("I", "rank")
    if not 1 <= rank <= MAX_RANK:
        raise ParseError(f"volume rank {rank} outside 1..{MAX_RANK}", 4)
    shape = reader.unpack(f"{rank}I", "extents")
    if any(e < 1 for e in shape):
        raise ParseError(f"non-positive extent in {shape}", 8)
    payload = reader.take(4 * math.prod(shape), "payload")  # Python ints: no wrap
    reader.finish()
    arr = np.frombuffer(payload, dtype="<f4").reshape(shape).copy()
    return _require_finite(arr, f"volume file {path}")


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
    volume that overflows float32 (a huge ``blob_amplitude``) is a DataError.

    No random stream is keyed by site, so each subject's noise is drawn once
    and every site maps the same float64 values through its affine; the
    records come out site-major."""
    affines = _site_affines(spec)
    by_site: list[list[SubjectRecord]] = [[] for _ in affines]
    jitter_sigma = spec.jitter_fraction * spec.noise_sigma

    def at_sites(records: list[SubjectRecord], shared: np.ndarray, what: str):
        """Yield each site's record with ``shared`` under that site's affine map."""
        for rec, (gain, offset) in zip(records, affines):
            yield rec, _require_finite((gain * shared + offset).astype(np.float32),
                                       f"synthetic {what} of subject {rec.subject_id}")

    for label in range(spec.class_count):
        blob = _blob(spec, label)
        for idx in range(spec.subjects_per_class_per_site):
            key = (spec.seed, label, idx)
            records = [SubjectRecord(f"s{site:02d}c{label}n{idx:03d}", f"site{site:02d}",
                                     label) for site in range(spec.site_count)]
            underlying = _smooth_noise(np.random.default_rng((*key, 0)), spec) + blob
            for vol in range(spec.volumes_per_subject):
                vol_rng = np.random.default_rng((*key, 1, vol))
                jitter = (vol_rng.normal(0.0, jitter_sigma, size=spec.volume_extent)
                          if jitter_sigma > 0 else 0.0)
                for rec, arr in at_sites(records, underlying + jitter, f"volume {vol}"):
                    rec.fmri_volumes.append(VolumeSample(arr))
            if spec.with_smri:
                noise = _smooth_noise(np.random.default_rng((*key, 2)), spec)
                for rec, arr in at_sites(records, noise, "sMRI volume"):
                    rec.smri = VolumeSample(arr)
            if spec.with_fc:
                fc, _ = _pearson(np.random.default_rng((*key, 3)).normal(
                    size=(24, spec.fc_parcels)))
            if spec.with_pheno:
                values = np.random.default_rng((*key, 4)).normal(size=spec.pheno_dim)
                if spec.pheno_signal > 0:
                    values[0] += (label - (spec.class_count - 1) / 2.0) * spec.pheno_signal
            for rec, site_records in zip(records, by_site):
                if spec.with_fc:  # a copy per site: no two records share an array
                    rec.fc_vector = fc.reshape(-1).copy()
                if spec.with_pheno:
                    rec.phenotype = values.astype(np.float32)
                    rec.pheno_mask = np.ones(spec.pheno_dim, dtype=np.float32)
                rec.validate()
                site_records.append(rec)
    return [rec for site_records in by_site for rec in site_records]


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
    """The subject records of a manifest, in first-appearance order.

    Each row's path is relative to the manifest's directory. A file may be
    listed once (paths compared after resolving them) and a subject may have
    one ``smri`` row, one ``fc`` row and one row of phenotype cells: a file
    under two subjects could sit on both sides of a fold, and a second row
    would replace the first. Every refusal is a ``DataError`` naming its line.
    """
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
        path_line: dict[Path, int] = {}
        single_line: dict[tuple[str, str], int] = {}  # a subject's smri, fc or phenotype row
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
            if label < 0:
                raise DataError(f"manifest line {lineno}: label {label} is negative; "
                                f"a label is a class index, 0 or more")
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
            first = path_line.setdefault(full.resolve(), lineno)
            if first != lineno:
                raise DataError(f"manifest line {lineno}: path {rel_path!r} names the same "
                                f"file as line {first}")
            if modality in ("smri", "fc"):
                first = single_line.setdefault((subject_id, modality), lineno)
                if first != lineno:
                    raise DataError(f"manifest line {lineno}: subject {subject_id!r} has a "
                                    f"second {modality} row; the first is line {first}")
            if modality == "fmri":
                rec.fmri_volumes.append(VolumeSample(read_volume(full)))
            elif modality == "smri":
                rec.smri = VolumeSample(read_volume(full))
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
                first = single_line.setdefault((subject_id, "phenotype"), lineno)
                if first != lineno:
                    raise DataError(f"manifest line {lineno}: subject {subject_id!r} has "
                                    f"phenotype cells on a second row; the first is line {first}")
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
