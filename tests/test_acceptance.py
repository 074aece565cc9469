"""End-to-end acceptance checks for the full compression pipeline.

Each test prints one `[acceptance] criterion N ...: PASS/FAIL` line (visible
with `pytest -s`). Training-based criteria share a module-scoped cache of
five seeded runs on a clustered synthetic corpus.
"""

import math

import numpy as np
import pytest

from stscq.bitstream import StreamHeader, bpp, deserialize, payload_bits, serialize
from stscq.codebook import Codebook, CodebookPool, TokenSpecificGroup, bit_width, init_kmeanspp
from stscq.latent import encode, fit_pca
from stscq.metrics import compare_utilization
from stscq.quantizer import QuantizedImage, quantize_group, quantize_one, quantize_routed
from stscq.router import (
    init_router,
    loss_decisive,
    loss_entropy,
    loss_quant_guided,
    loss_router,
    route_learned,
    route_naive,
    router_loss_and_grads,
)
from stscq.synth import ImageCorpusSpec, MixtureSpec, make_image_corpus, make_token_corpus
from stscq.trainer import TrainConfig, mean_latent_mse, stage1, stage2, stage3

SEEDS = (0, 1, 2, 3, 4)


def check(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {criterion}: {status}{suffix}")
    assert ok, f"{criterion}{suffix}"


def base_config(seed: int) -> TrainConfig:
    return TrainConfig(
        M=8, K=16, T=16, d=8, seed=seed,
        steps_stage1=800, steps_stage2=1200,
        learning_rate=0.05, batch_size=32, lam1=1.0,
    )


@pytest.fixture(scope="module")
def runs():
    """Per-seed stage-1/stage-2 artifacts plus a train/held-out split."""
    out = {}
    for seed in SEEDS:
        spec = MixtureSpec(clusters=8, T=16, d=8, samples=1024,
                           separation=5.0, sigma=0.5, seed=seed)
        tokens, _, _ = make_token_corpus(spec)
        train, held = tokens[:512], tokens[512:]
        cfg = base_config(seed)
        pool1, router1 = stage1(train, cfg)
        pool2, router2 = stage2(train, pool1, router1, cfg)
        out[seed] = dict(train=train, held=held, cfg=cfg,
                         pool1=pool1, router1=router1,
                         pool2=pool2, router2=router2)
    return out


def test_criterion_1_bit_accounting():
    table = [
        (256, 4096, 1, 0.0469),
        (128, 4096, 1, 0.0234),
        (32, 4096, 1, 0.0059),
        (256, 1024, 16, 0.0391),
        (128, 256, 256, 0.0157),
    ]
    ok = all(round(bpp(T, K, M, 256, 256), 4) == expect for T, K, M, expect in table)
    # a 256-token stream at 12 bits per index costs 3072 bits; dropping to
    # 8-bit indices plus an 8-bit group id costs 2056
    before = 256 * bit_width(4096)
    after = payload_bits(256, 256, 256)
    ok = ok and before == 3072 and after == 2056
    check("criterion 1 (bit accounting)", ok, f"{before}->{after} bits")


def brute_force_nearest(z, codes):
    best_i, best_d = 0, float("inf")
    for i, code in enumerate(codes):
        dist = sum((a - b) ** 2 for a, b in zip(z, code))
        if dist < best_d:
            best_i, best_d = i, dist
    return best_i, best_d


def test_criterion_2_quantizer_oracle():
    rng = np.random.default_rng(100)
    ok = True
    for _ in range(400):
        K, d = int(rng.integers(1, 17)), int(rng.integers(1, 9))
        cb = Codebook(rng.standard_normal((K, d)))
        z = rng.standard_normal(d)
        idx, err = quantize_one(z, cb)
        oi, od = brute_force_nearest(z, cb.codes)
        ok = ok and idx == oi and abs(err - od) < 1e-9
    for _ in range(300):
        K, d, T = (int(rng.integers(1, n)) for n in (17, 9, 9))
        group = TokenSpecificGroup([Codebook(rng.standard_normal((K, d))) for _ in range(T)])
        tokens = rng.standard_normal((T, d))
        indices, total = quantize_group(tokens, group)
        oracle = [brute_force_nearest(tokens[t], group.sub[t].codes) for t in range(T)]
        ok = ok and list(indices) == [o[0] for o in oracle]
        ok = ok and abs(total - sum(o[1] for o in oracle)) < 1e-9
    for _ in range(300):
        M, K, d, T = (int(rng.integers(1, 9)) for _ in range(4))
        K = min(K * 2, 16)
        pool = CodebookPool([
            TokenSpecificGroup([Codebook(rng.standard_normal((K, d))) for _ in range(T)])
            for _ in range(M)
        ])
        tokens = rng.standard_normal((T, d))
        q = quantize_routed(tokens, pool, policy="nn")
        best_g, best_e, best_idx = 0, float("inf"), None
        for gi, g in enumerate(pool.groups):
            idx, total = [], 0.0
            for t in range(T):
                i, e = brute_force_nearest(tokens[t], g.sub[t].codes)
                idx.append(i)
                total += e
            if total < best_e:
                best_g, best_e, best_idx = gi, total, idx
        ok = ok and q.group_index == best_g and list(q.indices) == best_idx
    check("criterion 2 (quantizer oracle equivalence)", ok, "1000 instances")


def test_criterion_3_bitstream_round_trip():
    rng = np.random.default_rng(200)
    ok = True
    for _ in range(10_000):
        M = int(rng.integers(1, 600))
        K = int(rng.integers(1, 5000))
        T = int(rng.integers(1, 40))
        q = QuantizedImage(int(rng.integers(M)), rng.integers(0, K, size=T).tolist())
        header = StreamHeader(M=M, K=K, T=T, width=64, height=64, channels=1)
        cb = Codebook(np.zeros((K, 1)))
        pool = CodebookPool([TokenSpecificGroup([cb] * T) for _ in range(M)])
        back = deserialize(serialize(q, header), pool)
        ok = ok and back.group_index == q.group_index and list(back.indices) == list(q.indices)
        if not ok:
            break
    for T in (1, 2, 32, 128, 256):
        for K in (1, 2, 3, 16, 255, 4096):
            for M in (1, 2, 7, 16, 256):
                expect = (0 if M == 1 else math.ceil(math.log2(M))) + T * (
                    0 if K == 1 else math.ceil(math.log2(K))
                )
                ok = ok and payload_bits(T, K, M) == expect
    check("criterion 3 (bitstream round trip)", ok, "10000 fuzzed streams + bit grid")


def test_criterion_4_router_loss_identities():
    uniform = np.full(16, 1 / 16)
    one_hot = np.zeros(16)
    one_hot[3] = 1.0
    ok = abs(loss_entropy([uniform] * 4) + math.log(16)) <= 1e-9
    ok = ok and abs(loss_decisive(one_hot)) <= 1e-9
    ok = ok and abs(loss_decisive(uniform) - math.log(16) / 16) <= 1e-9
    ok = ok and abs(loss_quant_guided(uniform, np.full(16, 3.3))) <= 1e-9
    combined = loss_router(np.tile(uniform, (4, 1)), np.full((4, 16), 2.5), 1.0, 1.0)
    ok = ok and abs(combined - (-2.599302)) <= 1e-6

    rng = np.random.default_rng(300)
    params = init_router(6, 8, h=16, seed=7)
    x = rng.standard_normal((9, 6))
    errors = rng.random((9, 8)) * 4
    _, grads = router_loss_and_grads(x, errors, params, 0.2, 0.3)
    eps = 1e-5
    worst = 0.0
    for name in ("W1", "b1", "W2", "b2"):
        flat = getattr(params, name).reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            lp, _ = router_loss_and_grads(x, errors, params, 0.2, 0.3)
            flat[j] = orig - eps
            lm, _ = router_loss_and_grads(x, errors, params, 0.2, 0.3)
            flat[j] = orig
            fd = (lp - lm) / (2 * eps)
            analytic = grads[name].reshape(-1)[j]
            worst = max(worst, abs(fd - analytic) / max(abs(fd), abs(analytic), 1e-8))
    ok = ok and worst <= 1e-4
    check("criterion 4 (router loss identities)", ok, f"max grad rel err {worst:.2e}")


def test_criterion_5_rate_distortion(runs):
    stscq, baseline = [], []
    for seed in SEEDS:
        r = runs[seed]
        stscq.append(mean_latent_mse(r["held"], r["pool2"]))
        flat = r["train"].reshape(-1, 8)
        global_cb = init_kmeanspp(flat, K=32, seed=seed)
        group = TokenSpecificGroup([global_cb] * 16)
        baseline.append(
            float(np.mean([quantize_group(t, group)[1] for t in r["held"]])) / (16 * 8)
        )
    mean_s, mean_b = float(np.mean(stscq)), float(np.mean(baseline))
    # switchable pool uses 16*4+3=67 bits/image, global K=32 uses 16*5=80
    ok = mean_s < mean_b
    check("criterion 5 (rate-distortion vs global codebook)", ok,
          f"stscq {mean_s:.4f} < global {mean_b:.4f}")


def test_criterion_6_utilization_direction(runs):
    shared_means, tsc_means = [], []
    for seed in SEEDS:
        r = runs[seed]
        cfg = TrainConfig(M=1, K=16, T=16, d=8, seed=seed,
                          steps_stage1=300, steps_stage2=600,
                          learning_rate=0.05, batch_size=32, lam1=1.0)
        pool1, router1 = stage1(r["train"], cfg)
        pool2, _ = stage2(r["train"], pool1, router1, cfg)
        s, t = compare_utilization(r["held"], pool1.groups[0].sub[0], pool2.groups[0])
        shared_means.append(s.mean)
        tsc_means.append(t.mean)
    ok = float(np.mean(tsc_means)) > float(np.mean(shared_means))
    check("criterion 6 (utilization direction)", ok,
          f"token-specific {np.mean(tsc_means):.1f}% > shared {np.mean(shared_means):.1f}%")


def test_criterion_7_routing_balance(runs):
    bar = 0.8 * math.log(8)
    ok = True
    details = []
    for seed in SEEDS:
        r = runs[seed]
        choices = [route_learned(t, r["router1"])[0] for t in r["held"]]
        counts = np.bincount(choices, minlength=8) / len(choices)
        entropy = -sum(p * math.log(p) for p in counts if p > 0)
        agree = np.mean([
            c == route_naive(t, r["pool1"]) for c, t in zip(choices, r["held"])
        ])
        details.append(f"seed {seed}: H={entropy:.3f} agree={agree:.0%}")
        ok = ok and entropy >= bar and agree >= 0.70
    check("criterion 7 (routing balance)", ok, "; ".join(details))


def test_criterion_8_pipeline_monotonicity(runs, tmp_path):
    from stscq.codebook import save_pool
    from stscq.latent import decode
    from stscq.quantizer import dequantize
    from stscq.router import save_router

    ok = True
    for seed in SEEDS:
        r = runs[seed]
        ok = ok and mean_latent_mse(r["train"], r["pool2"]) <= mean_latent_mse(
            r["train"], r["pool1"]
        ) + 1e-12

    spec = ImageCorpusSpec(clusters=4, width=32, height=32, patch_size=8,
                           samples=48, seed=0)
    images, _ = make_image_corpus(spec)
    pca = fit_pca(images, spec.patch_size, d=8, seed=0)
    tokens = np.stack([encode(img, pca).values for img in images])
    cfg = TrainConfig(M=4, K=16, T=16, d=8, seed=0, steps_stage1=300,
                      steps_stage2=400, learning_rate=0.05, batch_size=16, lam1=1.0)

    def pixel_mse(transform, pool):
        total, count = 0.0, 0
        for img in images:
            q = quantize_routed(encode(img, transform).values, pool, policy="nn")
            recon = decode(dequantize(q, pool), transform, img.width, img.height)
            total += float(((recon.data - img.data) ** 2).sum())
            count += img.data.size
        return total / count

    def run_all(out_dir):
        out_dir.mkdir()
        p1, rt1 = stage1(tokens, cfg)
        p2, rt2 = stage2(tokens, p1, rt1, cfg)
        refit = stage3(images, p2, pca, cfg)
        save_pool(p2, out_dir / "pool.pool")
        save_router(rt2, out_dir / "router.rtr")
        return p2, refit

    pool_a, refit_a = run_all(tmp_path / "a")
    before = pixel_mse(pca, pool_a)
    after = pixel_mse(refit_a, pool_a)
    ok = ok and after <= before + 1e-12

    run_all(tmp_path / "b")
    for name in ("pool.pool", "router.rtr"):
        ok = ok and (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    check("criterion 8 (pipeline monotonicity)", ok,
          f"pixel MSE {before:.5f}->{after:.5f}, artifacts byte-identical")
