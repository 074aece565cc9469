"""Golden digests of the training and codec artifacts.

Pins the SHA-256 of every byte the pipeline emits for two fixed-seed
configurations: a small image corpus run through stages 1-3, and the
acceptance configuration (seed 0) with short step counts. Each then runs
`stscq eval` over its corpus and pins the CSV and the routing histograms:
the images with the NN policy and the stage-3 PCA, the tokens with the CR
policy and the stage-2 router. A refactor that
claims identical behaviour must leave these digests unchanged; a change that
moves them on purpose re-pins them and says why in CHANGES.md.

The digests hold for float64 numpy on x86-64; another BLAS may move the last
bits of the router matmuls. Print the current digests with

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
        "pool1": "3c2f5486312be8e36e1e7d0b3737bfb556d4ada268c35fa9465097f881227480",
        "router1": "ec7911527252ab0ca8a58f15e8e4e94f7bfe8b211e5713a578f25ce61fc98b5d",
        "pool2": "ec84e5ffb3f6ec3b2682d13edadfd7ba058a61eaf70cac3a84eb1460aa2641d3",
        "router2": "32a0e0804f4a8a00d668671363d4b13afc959fe980f49dc169980d7e3579f91f",
        "pca3": "1beaa2b3548a8d9228bf8cf3539594978a6c3b415f66ef9f3437b6921dab2496",
        "curve_stage1": "f05ac689043c55af16fce389fadeedef41f4a0d6dbbbb32ad1593144d70a365f",
        "curve_stage2": "6a15f258fc5b21252b3990e6ed7cd965da572d2a946bfdf634c76472aadef79d",
        "curve_stage3": "bc875a990b4928276335d8ee6be6a703ace182a1d760253a8eae2606bb0e4504",
        "histogram": "d0a14371b81bac86548b4c128eb17b89590f69633592d506c7db83bb63918764",
        "utilization": "33724600670d5f9cb71d40e1dda4512cbec0567efc1f9e7c39967f71cec341b1",
        "stream": "c420f644594435452b97351e89d902b7dfe898a2e8c4865a657b89d36c0ed4d3",
        "eval_csv": "8235926df42d13572c5dfeaad6f6be0e9b055fec66f2a21fa0e18d4e073c056d",
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
