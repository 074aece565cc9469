import json
import struct

import numpy as np
import pytest

from stscq.cli import main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def token_corpus(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "corpus.npz"
    rc = run(
        "synth", "--kind", "tokens", "--out", path,
        "--clusters", 4, "--tokens", 4, "--dim", 4, "--samples", 128, "--seed", 0,
    )
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def image_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "imgs"
    rc = run(
        "synth", "--kind", "images", "--out", out,
        "--clusters", 2, "--width", 16, "--height", 16, "--patch-size", 4,
        "--samples", 16, "--seed", 0,
    )
    assert rc == 0
    return out / "manifest.json"


M_FLAG = "--M"
K_FLAG = "--K"
T_FLAG = "--T"


@pytest.fixture(scope="module")
def trained(tmp_path_factory, token_corpus):
    out = tmp_path_factory.mktemp("run")
    rc = run(
        "train", "--data", token_corpus, "--out-dir", out, "--stage", "1",
        M_FLAG, 4, K_FLAG, 8, T_FLAG, 4, "--d", 4,
        "--steps-stage1", 120, "--learning-rate", 0.05, "--batch-size", 16,
        "--lam1", 1.0, "--router-warmup", 30, "--seed", 0,
    )
    assert rc == 0
    rc = run(
        "train", "--data", token_corpus, "--out-dir", out, "--stage", "2",
        M_FLAG, 4, K_FLAG, 8, T_FLAG, 4, "--d", 4,
        "--steps-stage2", 120, "--learning-rate", 0.05, "--batch-size", 16,
        "--lam1", 1.0, "--router-warmup", 30, "--seed", 0,
    )
    assert rc == 0
    return out


def test_train_writes_artifacts(trained):
    for name in ("pool_stage1.pool", "router_stage1.rtr", "pool_stage2.pool",
                 "router_stage2.rtr", "report.json"):
        assert (trained / name).exists(), name
    report = json.loads((trained / "report.json").read_text())
    assert "stage2" in report["loss_curves"]


def test_stage2_without_stage1_is_data_error(tmp_path, token_corpus):
    rc = run(
        "train", "--data", token_corpus, "--out-dir", tmp_path / "empty",
        "--stage", "2", M_FLAG, 4, K_FLAG, 8, T_FLAG, 4, "--d", 4,
    )
    assert rc == 3


def test_unknown_config_key_is_config_error(tmp_path, token_corpus):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"M": 4, "bogus_knob": 1}))
    rc = run("train", "--data", token_corpus, "--out-dir", tmp_path / "o",
             "--config", cfg)
    assert rc == 2


def test_config_shape_mismatch_is_config_error(tmp_path, token_corpus):
    rc = run(
        "train", "--data", token_corpus, "--out-dir", tmp_path / "o",
        "--stage", "1", T_FLAG, 9, "--d", 4, M_FLAG, 2, K_FLAG, 4,
    )
    assert rc == 2


def test_missing_data_file_is_data_error(tmp_path):
    rc = run("train", "--data", tmp_path / "nope.npz", "--out-dir", tmp_path / "o")
    assert rc == 3


def test_encode_decode_tokens_round_trip(tmp_path, trained):
    rng = np.random.default_rng(0)
    tokens = rng.standard_normal((4, 4))
    tok_path = tmp_path / "t.npy"
    np.save(tok_path, tokens)
    stream = tmp_path / "t.stscq"
    rc = run("encode", "--tokens", tok_path, "--pool", trained / "pool_stage2.pool",
             "--out", stream, "--width", 16, "--height", 16)
    assert rc == 0 and stream.exists()
    out = tmp_path / "back.npy"
    rc = run("decode", "--stream", stream, "--pool", trained / "pool_stage2.pool",
             "--out", out)
    assert rc == 0
    back = np.load(out)
    assert back.shape == (4, 4)
    # decoding is quantize-then-lookup: re-encoding the result is a fixed point
    stream2 = tmp_path / "t2.stscq"
    rc = run("encode", "--tokens", out, "--pool", trained / "pool_stage2.pool",
             "--out", stream2, "--width", 16, "--height", 16)
    assert rc == 0
    assert stream.read_bytes() == stream2.read_bytes()


def test_encode_non_finite_tokens_is_data_error(tmp_path, trained, capsys):
    tokens = np.zeros((4, 4))
    tokens[1, 2] = np.nan
    tok_path = tmp_path / "t.npy"
    np.save(tok_path, tokens)
    rc = run("encode", "--tokens", tok_path, "--pool", trained / "pool_stage2.pool",
             "--out", tmp_path / "t.stscq")
    assert rc == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "t.stscq").exists()


def test_encode_oversized_width_is_data_error(tmp_path, trained, capsys):
    tok_path = tmp_path / "t.npy"
    np.save(tok_path, np.zeros((4, 4)))
    rc = run("encode", "--tokens", tok_path, "--pool", trained / "pool_stage2.pool",
             "--out", tmp_path / "t.stscq", "--width", 70000)
    assert rc == 3
    assert "width" in capsys.readouterr().err
    assert not (tmp_path / "t.stscq").exists()


@pytest.mark.parametrize(
    "raw", [b"", b"P5\n4 4\n", b"P5\nab 4\n255\n"], ids=["empty", "no-maxval", "non-numeric"]
)
def test_encode_malformed_pnm_is_data_error(tmp_path, trained, capsys, raw):
    from stscq.latent import PcaTransform, save_pca

    save_pca(PcaTransform(2, 1, np.zeros(4), np.eye(4)), tmp_path / "p.pca")
    (tmp_path / "bad.pgm").write_bytes(raw)
    rc = run("encode", "--image", tmp_path / "bad.pgm", "--pca", tmp_path / "p.pca",
             "--pool", trained / "pool_stage2.pool", "--out", tmp_path / "i.stscq")
    assert rc == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "i.stscq").exists()


def test_decode_with_two_channel_pca_is_data_error(tmp_path, trained):
    from stscq.latent import PCA_MAGIC

    np.save(tmp_path / "t.npy", np.zeros((4, 4)))
    stream = tmp_path / "t.stscq"
    rc = run("encode", "--tokens", tmp_path / "t.npy", "--pool", trained / "pool_stage2.pool",
             "--out", stream, "--width", 4, "--height", 4)
    assert rc == 0
    # save_pca refuses channels 2, so write the file's bytes directly:
    # version 1, patch_size 2, channels 2, d 4, then mean (8) and basis (4, 8)
    pca = PCA_MAGIC + struct.pack("<BHBH", 1, 2, 2, 4) + np.zeros(8 + 32).tobytes()
    (tmp_path / "p.pca").write_bytes(pca)
    rc = run("decode", "--stream", stream, "--pool", trained / "pool_stage2.pool",
             "--pca", tmp_path / "p.pca", "--out", tmp_path / "r.pgm")
    assert rc == 3
    assert not (tmp_path / "r.pgm").exists()


@pytest.mark.parametrize(
    "width, height, channels",
    [(4, 4, 3), (5, 4, 1), (4, 5, 1), (8, 8, 1)],
    ids=["channels-3", "width-not-tiled", "height-not-tiled", "too-many-patches"],
)
def test_decode_checks_stream_header_against_pca_and_pool(tmp_path, trained, capsys, width, height, channels):
    from stscq.bitstream import StreamHeader, serialize
    from stscq.latent import PcaTransform, save_pca
    from stscq.quantizer import QuantizedImage

    # the pool has T=4 tokens of d=4; a 1-channel PCA with 2x2 patches tiles a 4x4 image
    header = StreamHeader(M=4, K=8, T=4, width=width, height=height, channels=channels)
    (tmp_path / "s.stscq").write_bytes(serialize(QuantizedImage(1, [0, 1, 2, 3]), header))
    save_pca(PcaTransform(2, 1, np.zeros(4), np.eye(4)), tmp_path / "p.pca")
    rc = run("decode", "--stream", tmp_path / "s.stscq", "--pool", trained / "pool_stage2.pool",
             "--pca", tmp_path / "p.pca", "--out", tmp_path / "r.pgm")
    assert rc == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "r.pgm").exists()


def test_encode_cr_policy(tmp_path, trained):
    tok_path = tmp_path / "t.npy"
    np.save(tok_path, np.random.default_rng(1).standard_normal((4, 4)))
    rc = run("encode", "--tokens", tok_path, "--pool", trained / "pool_stage2.pool",
             "--router", trained / "router_stage2.rtr", "--policy", "cr",
             "--out", tmp_path / "c.stscq")
    assert rc == 0


def test_eval_writes_csv_and_histograms(tmp_path, trained, token_corpus):
    out = tmp_path / "rd.csv"
    rc = run("eval", "--data", token_corpus, "--pool", trained / "pool_stage2.pool",
             "--router", trained / "router_stage2.rtr", "--out", out)
    assert rc == 0
    assert out.exists()
    assert (tmp_path / "rd.csv.gp").exists()
    hist = json.loads((tmp_path / "rd.csv.hist.json").read_text())
    assert sum(sum(h["counts"]) for h in hist.values()) == 128


def test_image_pipeline_end_to_end(tmp_path, image_corpus):
    out = tmp_path / "run"
    flags = [M_FLAG, 2, K_FLAG, 4, T_FLAG, 16, "--d", 4,
             "--steps-stage1", 80, "--steps-stage2", 80,
             "--learning-rate", 0.05, "--batch-size", 8,
             "--lam1", 1.0, "--router-warmup", 20, "--seed", 0]
    rc = run("train", "--data", image_corpus, "--out-dir", out, "--stage", "all", *flags)
    assert rc == 0
    assert (out / "pca.pca").exists()
    assert (out / "pca_stage3.pca").exists()

    img = image_corpus.parent / "img_00000.pgm"
    stream = tmp_path / "i.stscq"
    rc = run("encode", "--image", img, "--pca", out / "pca.pca",
             "--pool", out / "pool_stage2.pool", "--out", stream)
    assert rc == 0
    recon = tmp_path / "recon.pgm"
    rc = run("decode", "--stream", stream, "--pool", out / "pool_stage2.pool",
             "--pca", out / "pca_stage3.pca", "--out", recon)
    assert rc == 0
    from stscq.latent import read_pnm

    a, b = read_pnm(img), read_pnm(recon)
    assert a.data.shape == b.data.shape


def test_train_deterministic_artifacts(tmp_path, token_corpus):
    flags = [M_FLAG, 2, K_FLAG, 4, T_FLAG, 4, "--d", 4,
             "--steps-stage1", 60, "--steps-stage2", 60,
             "--learning-rate", 0.05, "--batch-size", 16, "--seed", 3]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run("train", "--data", token_corpus, "--out-dir", a, "--stage", "1", *flags) == 0
    assert run("train", "--data", token_corpus, "--out-dir", a, "--stage", "2", *flags) == 0
    assert run("train", "--data", token_corpus, "--out-dir", b, "--stage", "1", *flags) == 0
    assert run("train", "--data", token_corpus, "--out-dir", b, "--stage", "2", *flags) == 0
    for name in ("pool_stage1.pool", "pool_stage2.pool", "router_stage2.rtr"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_sweep_writes_points(tmp_path, token_corpus):
    out = tmp_path / "sweep.csv"
    rc = run("sweep", "--data", token_corpus, "--m-values", "1,2", "--out", out,
             K_FLAG, 4, T_FLAG, 4, "--d", 4, "--steps-stage1", 60,
             "--steps-stage2", 60, "--learning-rate", 0.05, "--batch-size", 16,
             "--seed", 0)
    assert rc == 0
    import csv

    with open(out) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4  # two M values x two policies
    assert {r["policy"] for r in rows} == {"nn", "cr"}


def test_seed_env_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("STSCQ_SEED", "11")
    p1 = tmp_path / "a.npz"
    p2 = tmp_path / "b.npz"
    assert run("synth", "--kind", "tokens", "--out", p1, "--samples", 16) == 0
    assert run("synth", "--kind", "tokens", "--out", p2, "--samples", 16, "--seed", 11) == 0
    with np.load(p1) as a, np.load(p2) as b:
        assert np.array_equal(a["tokens"], b["tokens"])
