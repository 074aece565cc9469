"""Seeded benchmark inputs, written as files through the library's public API.

Runs as its own process so that generating a paper-scale pool never counts
toward the measured process's peak RSS:

    python3 perfbench/inputs.py {paper,train} SEED OUT_DIR GEOMETRY_JSON

The same seed and geometry always give byte-identical files.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from stscq import bitstream, codebook, latent, synth  # noqa: E402
from stscq.quantizer import QuantizedImage  # noqa: E402


def paper(seed: int, out: Path, g: dict) -> None:
    """Images to encode, PCA, a token-specific pool and valid streams to decode.

    Training a pool at this scale is infeasible here, so each code is a
    corpus token at the same position plus Gaussian noise. The PCA and pool
    come from one half of the corpus; the other half is what gets encoded.
    """
    rng = np.random.default_rng(seed)
    n = g["images"]
    spec = synth.ImageCorpusSpec(clusters=8, width=g["size"], height=g["size"], channels=1,
                                 patch_size=g["patch"], samples=2 * n, sigma=0.05, seed=seed)
    images, labels = synth.make_image_corpus(spec)
    fit, held = images[:n], images[n:]
    synth.save_image_corpus(out / "images", held, labels[n:], spec)
    pca = latent.fit_pca(fit, g["patch"], g["d"], seed=seed)
    latent.save_pca(pca, out / "pca.pca")

    tokens = np.stack([latent.encode(img, pca).values for img in fit])  # (n, T, d)
    M, K, T = g["M"], g["K"], tokens.shape[1]
    scale = g["noise"] * float(tokens.std())
    groups = []
    for _ in range(M):
        codes = tokens[rng.integers(n, size=(T, K)), np.arange(T)[:, None]]  # (T, K, d)
        codes += scale * rng.standard_normal(codes.shape)
        groups.append(codebook.TokenSpecificGroup([codebook.Codebook(c) for c in codes]))
    codebook.save_pool(codebook.CodebookPool(groups, frozen=True), out / "pool.pool")
    del groups

    header = bitstream.StreamHeader(M=M, K=K, T=T, width=g["size"], height=g["size"], channels=1)
    group_ids = rng.integers(M, size=g["streams"])
    indices = rng.integers(K, size=(g["streams"], T))
    (out / "streams").mkdir()
    for s in range(g["streams"]):
        q = QuantizedImage(group_index=int(group_ids[s]), indices=indices[s])
        (out / "streams" / f"s_{s:05d}.stscq").write_bytes(bitstream.serialize(q, header))
    np.savez(out / "streams.npz", groups=group_ids, indices=indices)


def train(seed: int, out: Path, g: dict) -> None:
    """A clustered 32x32 grayscale corpus for the acceptance-scale trainer."""
    spec = synth.ImageCorpusSpec(clusters=8, width=g["size"], height=g["size"], channels=1,
                                 patch_size=g["patch"], samples=g["images"], sigma=0.05, seed=seed)
    images, labels = synth.make_image_corpus(spec)
    synth.save_image_corpus(out / "images", images, labels, spec)


if __name__ == "__main__":
    kind, seed, out, geometry = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), json.loads(sys.argv[4])
    out.mkdir(parents=True, exist_ok=True)
    {"paper": paper, "train": train}[kind](seed, out, geometry)
