"""Synthetic corpora: clustered token mixtures and procedural labeled images.

Stand-ins for a real training set; every generator is deterministic for a
fixed seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .errors import BadSpec, EmptyCorpus, LengthMismatch, ShapeMismatch, StscqError
from .latent import ImageBuffer, write_pnm


def parse_json(raw: bytes | str, source):
    """The JSON value of `raw`; BadSpec naming `source` for what json.loads refuses or cannot nest."""
    try:
        return json.loads(raw)
    except (ValueError, RecursionError) as e:
        raise BadSpec(f"{source} is not JSON: {e}") from None


def build_spec(cls, raw, overrides=None):
    """A validated `cls` from the JSON object `raw` updated with `overrides`.

    BadSpec for an unknown key or a value that is not of its field's type (an
    int may stand for a float, but a bool is not an int).
    """
    if not isinstance(raw, dict):
        raise BadSpec(f"expected a JSON object of {cls.__name__} fields, got {type(raw).__name__}")
    types = {f.name: type(f.default) for f in fields(cls)}
    unknown = set(raw) - set(types)
    if unknown:
        raise BadSpec(f"unknown {cls.__name__} keys: {sorted(unknown)}")
    values = {**raw, **(overrides or {})}
    for name, value in values.items():
        if types[name] is float and type(value) is int:
            values[name] = value = float(value)
        if type(value) is not types[name]:
            raise BadSpec(f"{name} must be {types[name].__name__}, got {value!r}")
    spec = cls(**values)
    spec.validate()
    return spec


@dataclass
class MixtureSpec:
    clusters: int = 8
    T: int = 16
    d: int = 8
    samples: int = 512
    separation: float = 5.0
    sigma: float = 0.5
    seed: int = 0

    def validate(self) -> None:
        if min(self.clusters, self.T, self.d, self.samples) < 1 or self.seed < 0:
            raise BadSpec("counts must be >= 1 and the seed >= 0")
        if not (math.isfinite(self.sigma) and math.isfinite(self.separation)):
            raise BadSpec("separation and sigma must be finite")
        if self.sigma < 0 or self.separation < 0:
            raise BadSpec("separation and sigma must be non-negative")


def make_token_corpus(spec: MixtureSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Symmetric Gaussian mixture of token matrices.

    Returns (tokens, labels, means) with tokens (n, T, d), labels (n,),
    means (clusters, T, d). Samples are split evenly across clusters and
    interleaved so any prefix stays balanced.
    """
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    means = spec.separation * rng.standard_normal((spec.clusters, spec.T, spec.d))
    labels = np.arange(spec.samples) % spec.clusters
    noise = spec.sigma * rng.standard_normal((spec.samples, spec.T, spec.d))
    tokens = means[labels] + noise
    return tokens, labels, means


def save_token_corpus(path, tokens, labels, means, spec: MixtureSpec) -> None:
    np.savez(
        path,
        tokens=tokens,
        labels=labels,
        means=means,
        spec=json.dumps(vars(spec)),
    )


def load_arrays(path) -> np.ndarray | dict[str, np.ndarray]:
    """The array of a .npy file, or every array of a .npz archive read whole. Bytes
    numpy cannot parse, for which it raises BadZipFile, EOFError, ValueError,
    tokenize.TokenError and more, are a StscqError naming the file."""
    try:
        with open(path, "rb") as f:
            loaded = np.load(f, allow_pickle=False)
            if isinstance(loaded, np.lib.npyio.NpzFile):
                return {name: loaded[name] for name in loaded.files}
            trailing = f.read(1)
    except Exception as e:
        raise StscqError(f"{path} is not a readable .npy or .npz file: {e}") from e
    if trailing:
        raise LengthMismatch(f"{path} has bytes after its array")
    return loaded


def load_token_corpus(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, MixtureSpec]:
    z = load_arrays(path)
    missing = {"tokens", "labels", "means", "spec"} - set(z if isinstance(z, dict) else ())
    if missing:
        raise BadSpec(f"{path} has no {sorted(missing)}")
    spec = build_spec(MixtureSpec, parse_json(str(z["spec"]), f"the spec in {path}"))
    return z["tokens"], z["labels"], z["means"], spec


@dataclass
class ImageCorpusSpec:
    clusters: int = 4
    width: int = 32
    height: int = 32
    channels: int = 1
    patch_size: int = 8
    samples: int = 64
    sigma: float = 0.05
    seed: int = 0

    def validate(self) -> None:
        if min(self.clusters, self.samples, self.width, self.height, self.patch_size) < 1 or self.seed < 0:
            raise BadSpec("counts and sizes must be >= 1 and the seed >= 0")
        if self.width % self.patch_size or self.height % self.patch_size:
            raise BadSpec("image size must be divisible by patch size")
        if self.channels not in (1, 3):
            raise BadSpec("channels must be 1 or 3")
        if not math.isfinite(self.sigma):
            raise BadSpec("sigma must be finite")


def _smooth_pattern(rng, height, width, channels) -> np.ndarray:
    # low-frequency base: coarse random grid blown up by pixel repetition
    coarse = rng.random((max(height // 8, 1), max(width // 8, 1), channels))
    reps = (height // coarse.shape[0] + 1, width // coarse.shape[1] + 1, 1)
    big = np.tile(coarse, reps)[:height, :width, :]
    return big


def make_image_corpus(spec: ImageCorpusSpec) -> tuple[list[ImageBuffer], np.ndarray]:
    """Procedural labeled images: per-cluster smooth base pattern plus noise."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    bases = [_smooth_pattern(rng, spec.height, spec.width, spec.channels) for _ in range(spec.clusters)]
    labels = np.arange(spec.samples) % spec.clusters
    images = []
    for lab in labels:
        noisy = bases[lab] + spec.sigma * rng.standard_normal(bases[lab].shape)
        images.append(ImageBuffer.from_array(np.clip(noisy, 0.0, 1.0)))
    return images, labels


def save_image_corpus(directory, images: list[ImageBuffer], labels, spec: ImageCorpusSpec) -> Path:
    """Writes PGM/PPM files plus a manifest listing paths and labels."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    ext = "pgm" if spec.channels == 1 else "ppm"
    entries = []
    for i, (img, lab) in enumerate(zip(images, labels)):
        name = f"img_{i:05d}.{ext}"
        write_pnm(img, directory / name)
        entries.append({"file": name, "label": int(lab)})
    manifest = directory / "manifest.json"
    manifest.write_text(
        json.dumps({"spec": vars(spec), "images": entries}, indent=2) + "\n"
    )
    return manifest


def load_image_corpus(manifest_path) -> tuple[list[ImageBuffer], np.ndarray, ImageCorpusSpec]:
    from .latent import read_pnm

    manifest_path = Path(manifest_path)
    meta = parse_json(manifest_path.read_bytes(), manifest_path)
    if not isinstance(meta, dict) or "spec" not in meta or not isinstance(meta.get("images"), list):
        raise BadSpec(f"{manifest_path} must be a JSON object with a spec and an images list")
    spec = build_spec(ImageCorpusSpec, meta["spec"])
    if not all(isinstance(e, dict) and type(e.get("file")) is str and type(e.get("label")) in (int, str)
               for e in meta["images"]):
        raise BadSpec(f"every image entry in {manifest_path} needs a file name and an int or str label")
    if not meta["images"]:
        raise EmptyCorpus(f"{manifest_path} lists no images")
    images = [read_pnm(manifest_path.parent / e["file"]) for e in meta["images"]]
    if any((img.width, img.height, img.channels) != (spec.width, spec.height, spec.channels) for img in images):
        raise ShapeMismatch(f"{manifest_path} lists an image whose geometry is not its spec's")
    return images, np.array([e["label"] for e in meta["images"]]), spec
