"""Golden digests of the training and codec artifacts.

Pins the SHA-256 of every byte the pipeline emits for two fixed-seed
configurations: a small image corpus run through stages 1-3, and the
acceptance configuration (seed 0) with short step counts. Each then runs
`stscq eval` over its corpus and pins the CSV and the routing histograms:
the images with the NN policy and the stage-3 PCA, the tokens with the CR
policy and the stage-2 router. A refactor that
claims identical behaviour must leave these digests unchanged; a change that
moves them on purpose re-pins them and says why in CHANGES.md.

The digests hold for float64 numpy on x86-64. The encoder's PCA projection
(`latent.encode`) is a fixed-order einsum, so its tokens are the same bits
under every BLAS kernel. The router's matmuls, `fit_pca`'s `eigh` of the
patch covariance and stage 3's `lstsq` still go through BLAS and LAPACK, so
another kernel may move the last bits of the routers, the loss curves, the
`.pca` files and what depends on them. Print the current digests with

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

from stscq.bitstream import StreamHeader, serialize
from stscq.cli import main
from stscq.codebook import save_pool
from stscq.latent import encode, fit_pca, save_pca
from stscq.quantizer import quantize_routed
from stscq.router import save_router
from stscq.synth import (
    ImageCorpusSpec,
    MixtureSpec,
    make_image_corpus,
    make_token_corpus,
    save_image_corpus,
    save_token_corpus,
)
from stscq.trainer import TrainConfig, TrainReport, stage1, stage2, stage3

GOLDEN = {
    "small": {
        "pool1": "edd5df598bf6455c61eca4ced95b9454cc3fe5e081409d3be03151146ba004b5",
        "router1": "cc1c2178900d5a75c26e38a1bcab2f206dba7d00cbe48bf6e1cf122e01c86ef1",
        "pool2": "3939becfe58769743a3a7e6347dffc3c941d11c9116a406657ec72be3f9696f6",
        "router2": "089d87dcb153f6de99ed3b6cc5874a75038eb9081243a5a1d12681d808036388",
        "pca3": "0c05f15497bd27706e0df9d18b25e57684aa485a8e44e1569c9b1993570583ca",
        "curve_stage1": "750524adf605cbe76122f63021c6af83c236b956807eb6f424c17f7fa3a76bf7",
        "curve_stage2": "35346cf0f273c4022de757d7515c5a24c09fe53e18c0d95e7746600740e62653",
        "curve_stage3": "2b87033d958f70546b06257acddfba26ad2f91f7f2a1fe477aa0d6d48e1dcfa0",
        "histogram": "d0a14371b81bac86548b4c128eb17b89590f69633592d506c7db83bb63918764",
        "utilization": "33724600670d5f9cb71d40e1dda4512cbec0567efc1f9e7c39967f71cec341b1",
        "stream": "c420f644594435452b97351e89d902b7dfe898a2e8c4865a657b89d36c0ed4d3",
        "eval_csv": "c9ad069ce06b2a4c31f76e27600b1642969ec48a98480fdf4a5bc5405942f572",
        "eval_hist": "34c1f019cbea56dcf1303da14371fcb07a3c1e30ced9fdf90b93ba1cbff7d3b8",
    },
    "acceptance": {
        "pool1": "aa1cd7779437ed9221ae1001ef6d889776df692342850e0c9feea69a6059d471",
        "router1": "f2763dee31c0d1d471c7f3b16bd9cf67328af6fd44409f1baa3e89fe72a44aac",
        "pool2": "8e9bd609d92da8cf22725b8376fa8fefea29ed5c807ec9c1526db5ef47036464",
        "router2": "6295634f39050b06e662da2efcc365af48fad5e508c95a14c4a8f705e272f9e7",
        "curve_stage1": "e386597f4110cf53f96ac2c3f51303001d526cc8008c93aaccfab44385c5eb1e",
        "curve_stage2": "b3c4471918ce2360074e4c2a0328e0ac9da3549b0af350a7efad8efaa407c9ee",
        "histogram": "77205dcc7388b97012781d7de9e2f0eaad525dda1edf7557d5b83362b4c0c6d6",
        "utilization": "d18bdbaaa511fd8d46d76381b2e7338752fc96249a1367e2e8357f14bcc2ebdf",
        "stream": "bb537766d9504ea91bb36ff9524baf3f23e1909ac34f3d1d33c22fd44ba5b3f3",
        "eval_csv": "18a27970759a4c090473fc2843024911c327f46e22d03c4d4a23abdc90864902",
        "eval_hist": "d23ad8610ab7fe4fc00ba712b147399a9b567acad2776a4dfe4ddc779b3c2d7a",
    },
}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def train_digests(tokens, cfg, workdir: Path, images=None, pca=None) -> dict[str, str]:
    report = TrainReport()
    pool1, router1 = stage1(tokens, cfg, report=report)
    pool2, router2 = stage2(tokens, pool1, router1, cfg, report=report)
    files = {}
    for name, save, obj in (
        ("pool1", save_pool, pool1),
        ("router1", save_router, router1),
        ("pool2", save_pool, pool2),
        ("router2", save_router, router2),
    ):
        save(obj, workdir / name)
        files[name] = (workdir / name).read_bytes()
    if images is not None:
        save_pca(stage3(images, pool2, pca, cfg, report=report), workdir / "pca3")
        files["pca3"] = (workdir / "pca3").read_bytes()
    for stage, curve in sorted(report.loss_curves.items()):
        files[f"curve_{stage}"] = np.asarray(curve, dtype="<f8").tobytes()
    files["histogram"] = json.dumps(report.routing_histogram).encode()
    files["utilization"] = json.dumps(report.utilization_summary, sort_keys=True).encode()
    q = quantize_routed(tokens[0], pool2, policy="nn")
    header = StreamHeader(M=cfg.M, K=cfg.K, T=cfg.T, width=32, height=32, channels=1)
    files["stream"] = serialize(q, header)
    return {name: sha(data) for name, data in files.items()}


def eval_digests(workdir: Path, data: Path, *flags) -> dict[str, str]:
    """Digests of the rd.csv and rd.csv.hist.json that `stscq eval` writes."""
    out = workdir / "rd.csv"
    with redirect_stdout(io.StringIO()):
        rc = main(["eval", "--data", str(data), "--pool", str(workdir / "pool2"), "--out", str(out), *flags])
    assert rc == 0
    return {"eval_csv": sha(out.read_bytes()), "eval_hist": sha(Path(f"{out}.hist.json").read_bytes())}


def small_digests(workdir: Path) -> dict[str, str]:
    spec = ImageCorpusSpec(clusters=2, width=16, height=16, patch_size=4, samples=24, seed=0)
    images, labels = make_image_corpus(spec)
    pca = fit_pca(images, spec.patch_size, d=4, seed=0)
    tokens = np.stack([encode(img, pca).values for img in images])
    cfg = TrainConfig(M=2, K=4, T=16, d=4, seed=0, learning_rate=0.05, batch_size=16,
                      steps_stage1=150, steps_stage2=200, lam1=1.0, router_warmup=50)
    digests = train_digests(tokens, cfg, workdir, images, pca)
    manifest = save_image_corpus(workdir / "imgs", images, labels, spec)
    return digests | eval_digests(workdir, manifest, "--pca", str(workdir / "pca3"))


def acceptance_digests(workdir: Path) -> dict[str, str]:
    spec = MixtureSpec(clusters=8, T=16, d=8, samples=1024, separation=5.0, sigma=0.5, seed=0)
    tokens, labels, means = make_token_corpus(spec)
    cfg = TrainConfig(M=8, K=16, T=16, d=8, seed=0, steps_stage1=150, steps_stage2=100,
                      learning_rate=0.05, batch_size=32, lam1=1.0)
    digests = train_digests(tokens[:512], cfg, workdir)
    save_token_corpus(workdir / "tokens.npz", tokens[:512], labels[:512], means, spec)
    return digests | eval_digests(workdir, workdir / "tokens.npz", "--policy", "cr", "--router", str(workdir / "router2"))


CONFIGS = {"small": small_digests, "acceptance": acceptance_digests}


def test_small_config_digests(tmp_path):
    assert small_digests(tmp_path) == GOLDEN["small"]


def test_acceptance_config_digests(tmp_path):
    assert acceptance_digests(tmp_path) == GOLDEN["acceptance"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        current = {name: fn(Path(tmp)) for name, fn in CONFIGS.items()}
    json.dump(current, sys.stdout, indent=4)
    print()
