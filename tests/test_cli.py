import contextlib
import io
import json
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stscq import cli, synth
from stscq.cli import main
from stscq.errors import StscqError


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


@pytest.mark.parametrize("flag, value", [("--dead-code-epochs", 0), ("--steps-stage1", -5),
                                         ("--steps-stage2", -1), ("--router-warmup", -1)])
def test_out_of_range_count_is_config_error(tmp_path, token_corpus, capsys, flag, value):
    rc = run("train", "--data", token_corpus, "--out-dir", tmp_path / "o", "--stage", "1",
             M_FLAG, 2, K_FLAG, 4, T_FLAG, 4, "--d", 4, flag, value)
    assert rc == 2
    assert flag[2:].replace("-", "_") in capsys.readouterr().err
    assert not (tmp_path / "o" / "pool_stage1.pool").exists()


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
             "--out", tmp_path / "t.stscq", "--width", 4, "--height", 4)
    assert rc == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "t.stscq").exists()


@pytest.mark.parametrize(
    "write",
    [
        lambda p: np.save(p, np.array([{"a": 1}, None], dtype=object), allow_pickle=True),
        lambda p: p.write_bytes(np.random.default_rng(0).bytes(100)),
        lambda p: p.write_bytes(b"\x93NUMPY\x01\x00"),
        # numpy reads the declared (4, 4) and ignores the rest
        lambda p: (np.save(p, np.zeros((4, 4))), p.write_bytes(p.read_bytes() + bytes(8))),
    ],
    ids=["object-array", "random-bytes", "truncated-header", "trailing-bytes"],
)
def test_encode_unreadable_tokens_file_is_data_error(tmp_path, trained, capsys, write):
    # np.load raises ValueError, which main used to report as a config error
    tok_path = tmp_path / "t.npy"
    write(tok_path)
    rc = run("encode", "--tokens", tok_path, "--pool", trained / "pool_stage2.pool",
             "--out", tmp_path / "t.stscq", "--width", 4, "--height", 4)
    assert rc == 3
    err = capsys.readouterr().err
    assert str(tok_path) in err and "Traceback" not in err
    assert not (tmp_path / "t.stscq").exists()


def test_encode_oversized_width_is_data_error(tmp_path, trained, capsys):
    tok_path = tmp_path / "t.npy"
    np.save(tok_path, np.zeros((4, 4)))
    rc = run("encode", "--tokens", tok_path, "--pool", trained / "pool_stage2.pool",
             "--out", tmp_path / "t.stscq", "--width", 70000, "--height", 4)
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


def test_encode_pnm_with_trailing_bytes_is_data_error(tmp_path, trained, capsys):
    # the pixels and one byte more used to encode as if the byte were not there
    from stscq.latent import PcaTransform, save_pca

    save_pca(PcaTransform(2, 1, np.zeros(4), np.eye(4)), tmp_path / "p.pca")
    pixels = b"P5\n4 4\n255\n" + bytes(range(16))
    (tmp_path / "ok.pgm").write_bytes(pixels)
    (tmp_path / "bad.pgm").write_bytes(pixels + b"\n")
    args = ["--pca", tmp_path / "p.pca", "--pool", trained / "pool_stage2.pool"]
    assert run("encode", "--image", tmp_path / "ok.pgm", *args, "--out", tmp_path / "ok.stscq") == 0
    capsys.readouterr()
    rc = run("encode", "--image", tmp_path / "bad.pgm", *args, "--out", tmp_path / "bad.stscq")
    assert rc == 3
    err = capsys.readouterr().err
    assert "bytes after" in err and "Traceback" not in err
    assert not (tmp_path / "bad.stscq").exists()


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


@pytest.mark.parametrize(
    "broken, pca", [("pool", True), ("pool", False), ("pca", True)], ids=["pool-to-image", "pool-to-tokens", "pca"]
)
def test_decode_of_non_finite_codes_or_pca_is_data_error(tmp_path, capsys, broken, pca):
    from stscq.bitstream import StreamHeader, serialize
    from stscq.codebook import CodebookPool, save_pool
    from stscq.latent import PcaTransform, save_pca
    from stscq.quantizer import QuantizedImage

    rng = np.random.default_rng(3)
    codes = rng.standard_normal((2, 4, 4, 4))
    mean = np.full(4, 0.5)
    if broken == "pool":
        codes[1, 2, 3, 0] = np.nan  # the code the stream gathers for token 2
    else:
        mean[1] = np.nan
    save_pool(CodebookPool(codes, frozen=True), tmp_path / "p.pool")
    save_pca(PcaTransform(2, 1, mean, np.eye(4)), tmp_path / "p.pca")
    header = StreamHeader(M=2, K=4, T=4, width=4, height=4, channels=1)
    (tmp_path / "s.stscq").write_bytes(serialize(QuantizedImage(1, [0, 1, 3, 2]), header))
    out = tmp_path / ("r.pgm" if pca else "r.npy")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = run("decode", "--stream", tmp_path / "s.stscq", "--pool", tmp_path / "p.pool",
                 *(["--pca", tmp_path / "p.pca"] if pca else []), "--out", out)
    assert rc == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


@pytest.fixture
def t16_files(tmp_path):
    """A T=16 pool, PCA files with 4x4 patches (16 of them tile 16x16) of 1 and 3
    channels, and a token file."""
    from stscq.codebook import CodebookPool, save_pool
    from stscq.latent import PcaTransform, save_pca

    rng = np.random.default_rng(2)
    save_pool(CodebookPool(rng.standard_normal((2, 16, 4, 4)), frozen=True), tmp_path / "p.pool")
    for c in (1, 3):
        save_pca(PcaTransform(4, c, np.full(16 * c, 0.5), rng.standard_normal((4, 16 * c)) / 4), tmp_path / f"p{c}.pca")
    np.save(tmp_path / "t.npy", rng.standard_normal((16, 4)))
    return tmp_path


@pytest.mark.parametrize("channels", [1, 3])
def test_encode_tokens_takes_the_given_geometry(t16_files, capsys, channels):
    d, pca = t16_files, t16_files / f"p{channels}.pca"
    rc = run("encode", "--tokens", d / "t.npy", "--pool", d / "p.pool", "--pca", pca,
             "--out", d / "t.stscq", "--width", 16, "--height", 16)
    assert rc == 0
    assert "bpp=0.128906" in capsys.readouterr().out  # (1 + 16·2) payload bits over 16·16 pixels
    rc = run("decode", "--stream", d / "t.stscq", "--pool", d / "p.pool", "--pca", pca, "--out", d / "r.pnm")
    assert rc == 0
    from stscq.latent import read_pnm

    img = read_pnm(d / "r.pnm")
    assert (img.width, img.height, img.channels) == (16, 16, channels)


def test_encode_and_decode_onto_longer_existing_files_leave_exactly_the_new_output(t16_files):
    d = t16_files
    encode = ["encode", "--tokens", d / "t.npy", "--pool", d / "p.pool", "--pca", d / "p1.pca",
              "--width", 16, "--height", 16, "--out"]
    decode = ["decode", "--pool", d / "p.pool", "--pca", d / "p1.pca", "--stream", d / "fresh.stscq", "--out"]
    assert run(*encode, d / "fresh.stscq") == 0 and run(*decode, d / "fresh.pgm") == 0
    for name in ("old.stscq", "old.pgm"):
        (d / name).write_bytes(b"\xff" * 100000)
    assert run(*encode, d / "old.stscq") == 0 and run(*decode, d / "old.pgm") == 0
    assert (d / "old.stscq").read_bytes() == (d / "fresh.stscq").read_bytes()
    assert (d / "old.pgm").read_bytes() == (d / "fresh.pgm").read_bytes()


@pytest.mark.parametrize("geometry", [["--height", 16], ["--width", 16], [], ["--width", 0, "--height", 16]],
                         ids=["no-width", "no-height", "neither", "zero-width"])
def test_encode_tokens_without_geometry_is_config_error(t16_files, capsys, geometry):
    # a zero width wrote the stream, then bpp's ZeroDivisionError escaped main
    d = t16_files
    rc = run("encode", "--tokens", d / "t.npy", "--pool", d / "p.pool", "--out", d / "t.stscq", *geometry)
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (d / "t.stscq").exists()


def test_encode_image_without_pca_is_config_error(t16_files, capsys):
    from stscq.latent import ImageBuffer, write_pnm

    write_pnm(ImageBuffer(16, 16, 1, np.zeros((16, 16, 1))), t16_files / "i.pgm")
    rc = run("encode", "--image", t16_files / "i.pgm", "--pool", t16_files / "p.pool", "--out", t16_files / "i.stscq")
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("width, height", [(16, 12), (32, 16), (18, 16)], ids=["too-few", "too-many", "not-tiled"])
def test_encode_tokens_checks_geometry_against_pca_and_pool(t16_files, capsys, width, height):
    d = t16_files
    rc = run("encode", "--tokens", d / "t.npy", "--pool", d / "p.pool", "--pca", d / "p1.pca",
             "--out", d / "t.stscq", "--width", width, "--height", height)
    assert rc == 3
    assert "patches" in capsys.readouterr().err
    assert not (d / "t.stscq").exists()


def test_encode_cr_policy(tmp_path, trained):
    tok_path = tmp_path / "t.npy"
    np.save(tok_path, np.random.default_rng(1).standard_normal((4, 4)))
    rc = run("encode", "--tokens", tok_path, "--pool", trained / "pool_stage2.pool",
             "--router", trained / "router_stage2.rtr", "--policy", "cr",
             "--out", tmp_path / "c.stscq", "--width", 4, "--height", 4)
    assert rc == 0


def test_router_for_another_group_count_is_data_error(tmp_path, trained, token_corpus, capsys):
    # an 8-group router against the 4-group pools used to end in an IndexError traceback
    from stscq.router import init_router, save_router

    save_router(init_router(4, 8, h=8, seed=0), tmp_path / "r8.rtr")
    tok_path = tmp_path / "t.npy"
    np.save(tok_path, np.random.default_rng(1).standard_normal((4, 4)))
    runs = [
        ("encode", "--tokens", tok_path, "--pool", trained / "pool_stage2.pool", "--router", tmp_path / "r8.rtr",
         "--policy", "cr", "--out", tmp_path / "c.stscq", "--width", 4, "--height", 4),
        ("eval", "--data", token_corpus, "--pool", trained / "pool_stage2.pool", "--router", tmp_path / "r8.rtr",
         "--policy", "cr", "--out", tmp_path / "rd.csv"),
    ]
    stage2_dir = tmp_path / "run"
    stage2_dir.mkdir()
    (stage2_dir / "pool_stage1.pool").write_bytes((trained / "pool_stage1.pool").read_bytes())
    (stage2_dir / "router_stage1.rtr").write_bytes((tmp_path / "r8.rtr").read_bytes())
    runs.append(("train", "--data", token_corpus, "--out-dir", stage2_dir, "--stage", "2",
                 M_FLAG, 4, K_FLAG, 8, T_FLAG, 4, "--d", 4, "--steps-stage2", 10))
    for argv in runs:
        assert run(*argv) == 3, argv[0]
        err = capsys.readouterr().err
        assert "M=8" in err and "M=4" in err and "Traceback" not in err
    assert not (tmp_path / "c.stscq").exists() and not (tmp_path / "rd.csv").exists()
    assert not (stage2_dir / "pool_stage2.pool").exists()


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


def read_csv(path):
    import csv

    with open(path) as f:
        return list(csv.DictReader(f))


@pytest.mark.parametrize("command", ["train", "sweep"])
@pytest.mark.parametrize(
    "raw",
    ["5", "[1, 2]", '"M"', '{"M": "4"}', '{"M": 2.5}', '{"M": true}', '{"lam1": false}', '{"seed": null}'],
    ids=["number", "list", "string", "string-for-int", "float-for-int", "bool-for-int", "bool-for-float", "null"],
)
def test_malformed_config_is_config_error(tmp_path, token_corpus, capsys, command, raw):
    # a non-object used to reach set(raw), and a string or float M reached
    # TrainConfig, each ending in a TypeError traceback
    (tmp_path / "cfg.json").write_text(raw)
    out = ["--out-dir", tmp_path / "o"] if command == "train" else ["--out", tmp_path / "s.csv"]
    rc = run(command, "--data", token_corpus, "--config", tmp_path / "cfg.json", *out)
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "o").exists() and not (tmp_path / "s.csv").exists()


def test_config_file_trains_like_the_same_flags(tmp_path, token_corpus):
    # an int stands for a float field: "lam1": 1 is --lam1 1.0
    config = {"M": 2, "K": 4, "T": 4, "d": 4, "steps_stage1": 30, "router_warmup": 10,
              "learning_rate": 0.05, "batch_size": 16, "lam1": 1, "seed": 2}
    (tmp_path / "cfg.json").write_text(json.dumps(config))
    assert run("train", "--data", token_corpus, "--out-dir", tmp_path / "a", "--stage", "1",
               "--config", tmp_path / "cfg.json") == 0
    flags = [x for name, value in config.items() for x in ("--" + name.replace("_", "-"), value)]
    assert run("train", "--data", token_corpus, "--out-dir", tmp_path / "b", "--stage", "1", *flags) == 0
    for name in ("pool_stage1.pool", "router_stage1.rtr"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name


def test_stage2_over_a_pool_of_another_K_is_data_error(tmp_path, token_corpus, capsys):
    # stage 2 used to broadcast the K=4 codes to K=8 and exit 2 with numpy's ValueError
    shape = [M_FLAG, 2, T_FLAG, 4, "--d", 4, "--batch-size", 16]
    assert run("train", "--data", token_corpus, "--out-dir", tmp_path, "--stage", "1", K_FLAG, 4,
               "--steps-stage1", 20, "--router-warmup", 10, *shape) == 0
    capsys.readouterr()
    rc = run("train", "--data", token_corpus, "--out-dir", tmp_path, "--stage", "2", K_FLAG, 8,
             "--steps-stage2", 10, *shape)
    assert rc == 3
    err = capsys.readouterr().err
    assert "K=4" in err and "K=8" in err and "Traceback" not in err
    assert not (tmp_path / "pool_stage2.pool").exists()


def test_too_few_samples_for_a_thin_shard_is_data_error(tmp_path, capsys):
    assert run("synth", "--kind", "tokens", "--out", tmp_path / "c.npz", "--tokens", 4, "--dim", 2,
               "--samples", 3, "--clusters", 2) == 0
    rc = run("train", "--data", tmp_path / "c.npz", "--out-dir", tmp_path / "o", "--stage", "1",
             M_FLAG, 2, K_FLAG, 8, T_FLAG, 4, "--d", 2)
    assert rc == 3
    assert "Traceback" not in capsys.readouterr().err


def test_eval_manifest_without_pca_is_config_error(tmp_path, trained, image_corpus, capsys):
    rc = run("eval", "--data", image_corpus, "--pool", trained / "pool_stage2.pool", "--out", tmp_path / "rd.csv")
    assert rc == 2
    err = capsys.readouterr().err
    assert "--pca" in err and "Traceback" not in err
    assert not (tmp_path / "rd.csv").exists()


def test_sweep_over_images_reports_what_eval_reports(tmp_path, image_corpus):
    # sweep used to evaluate an image corpus as bare tokens at 256x256: bpp 0.0005
    # for these 16x16 images, and no pixel_mse or psnr
    flags = [K_FLAG, 4, T_FLAG, 16, "--d", 4, "--steps-stage1", 40, "--steps-stage2", 40,
             "--learning-rate", 0.05, "--batch-size", 8, "--router-warmup", 10, "--seed", 0]
    assert run("sweep", "--data", image_corpus, "--m-values", "2", "--out", tmp_path / "s.csv", *flags) == 0
    run_dir = tmp_path / "run"
    assert run("train", "--data", image_corpus, "--out-dir", run_dir, M_FLAG, 2, *flags) == 0
    assert run("eval", "--data", image_corpus, "--pool", run_dir / "pool_stage2.pool",
               "--pca", run_dir / "pca.pca", "--out", tmp_path / "rd.csv") == 0
    swept, (evaluated,) = read_csv(tmp_path / "s.csv"), read_csv(tmp_path / "rd.csv")
    assert evaluated["bpp"] == "0.12890625"  # (1 + 16·2) payload bits over 16·16 pixels
    assert [row for row in swept if row["policy"] == "nn"] == [evaluated]
    for row in swept:
        assert row["bpp"] == evaluated["bpp"]
        assert float(row["pixel_mse"]) > 0 and float(row["psnr"]) > 0


def test_synth_matches_the_library_corpus(tmp_path):
    from stscq import synth

    assert run("synth", "--kind", "tokens", "--out", tmp_path / "t.npz", "--clusters", 3, "--tokens", 5,
               "--dim", 2, "--samples", 12, "--separation", 2.0, "--sigma", 0.25, "--seed", 4) == 0
    spec = synth.MixtureSpec(clusters=3, T=5, d=2, samples=12, separation=2.0, sigma=0.25, seed=4)
    *arrays, saved_spec = synth.load_token_corpus(tmp_path / "t.npz")
    assert saved_spec == spec
    for got, want in zip(arrays, synth.make_token_corpus(spec)):
        assert np.array_equal(got, want)

    assert run("synth", "--kind", "images", "--out", tmp_path / "cli", "--clusters", 2, "--width", 8,
               "--height", 16, "--channels", 3, "--patch-size", 4, "--samples", 5, "--sigma", 0.1,
               "--seed", 7) == 0
    spec = synth.ImageCorpusSpec(clusters=2, width=8, height=16, channels=3, patch_size=4, samples=5,
                                 sigma=0.1, seed=7)
    synth.save_image_corpus(tmp_path / "lib", *synth.make_image_corpus(spec), spec)
    names = sorted(p.name for p in (tmp_path / "lib").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "cli").iterdir()) and len(names) == 6
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / "lib" / name).read_bytes(), name


def count_calls(monkeypatch):
    """Counts quantize_corpus calls and PCA encodes through every module that binds them."""
    from stscq import cli, latent, metrics, quantizer, trainer

    calls = {"quantize_corpus": 0, "encode": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    original = latent.encode
    search, encode = counting("quantize_corpus", quantizer.quantize_corpus), counting("encode", original)
    for module in (quantizer, metrics, trainer):
        monkeypatch.setattr(module, "quantize_corpus", search)
    for module in (latent, metrics, trainer, cli):
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, encode)
    return calls


@pytest.mark.parametrize("kind", ["manifest", "npz"])
def test_eval_searches_the_corpus_once(tmp_path, token_corpus, image_corpus, monkeypatch, kind):
    # eval used to search the corpus once for its RD point and again for its
    # routing histogram, and to PCA-encode every image twice
    from stscq.codebook import CodebookPool, save_pool
    from stscq.latent import fit_pca, save_pca
    from stscq.synth import load_image_corpus

    if kind == "npz":
        data, T, n_images, flags = token_corpus, 4, 0, []
    else:
        images, _, spec = load_image_corpus(image_corpus)
        save_pca(fit_pca(images, spec.patch_size, 4), tmp_path / "p.pca")
        data, T, n_images, flags = image_corpus, 16, len(images), ["--pca", tmp_path / "p.pca"]
    pool = CodebookPool(np.random.default_rng(0).standard_normal((2, T, 4, 4)), frozen=True)
    save_pool(pool, tmp_path / "p.pool")
    calls = count_calls(monkeypatch)
    assert run("eval", "--data", data, "--pool", tmp_path / "p.pool", "--out", tmp_path / "rd.csv", *flags) == 0
    assert calls == {"quantize_corpus": 1, "encode": n_images}
    hist = json.loads((tmp_path / "rd.csv.hist.json").read_text())
    assert sum(sum(h["counts"]) for h in hist.values()) == (n_images or 128)


MANIFEST_FAULTS = {
    "no-spec": lambda meta: {"images": meta["images"]},
    "unknown-spec-key": lambda meta: {**meta, "spec": {**meta["spec"], "bogus": 1}},
    "mistyped-spec-key": lambda meta: {**meta, "spec": {**meta["spec"], "patch_size": "4"}},
    "not-an-object": lambda meta: meta["images"],
    "entry-without-file": lambda meta: {**meta, "images": [{"label": 0}] + meta["images"][1:]},
}


@pytest.mark.parametrize("fault", sorted(MANIFEST_FAULTS))
def test_malformed_manifest_is_config_error(tmp_path, image_corpus, capsys, fault):
    # each of these used to end in a KeyError or TypeError traceback
    bad = tmp_path / "manifest.json"
    bad.write_text(json.dumps(MANIFEST_FAULTS[fault](json.loads(image_corpus.read_text()))))
    rc = run("train", "--data", bad, "--out-dir", tmp_path / "o", T_FLAG, 16, "--d", 4)
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_token_corpus_without_spec_is_config_error(tmp_path, token_corpus, capsys):
    with np.load(token_corpus) as z:
        np.savez(tmp_path / "c.npz", **{name: z[name] for name in z.files if name != "spec"})
    rc = run("train", "--data", tmp_path / "c.npz", "--out-dir", tmp_path / "o")
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("name", ["lam1", "lam2", "learning_rate"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_training_weight_is_config_error(tmp_path, token_corpus, capsys, source, name, value):
    # these used to train until the loss was NaN and exit 4; Python's JSON
    # reader takes NaN and Infinity
    if source == "flag":
        given = ["--" + name.replace("_", "-"), value]
    else:
        (tmp_path / "cfg.json").write_text(f'{{"{name}": {"NaN" if value == "nan" else "Infinity"}}}')
        given = ["--config", tmp_path / "cfg.json"]
    rc = run("train", "--data", token_corpus, "--out-dir", tmp_path / "o", "--stage", "1",
             M_FLAG, 2, K_FLAG, 4, T_FLAG, 4, "--d", 4, *given)
    assert rc == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv", [["--kind", "tokens", "--sigma", "nan"], ["--kind", "tokens", "--separation", "inf"],
                                  ["--kind", "images", "--sigma", "nan"]], ids=["tokens-sigma", "separation", "images-sigma"])
def test_non_finite_synth_spread_is_config_error(tmp_path, capsys, argv):
    # a NaN sigma used to write an all-NaN corpus and exit 0
    rc = run("synth", *argv, "--out", tmp_path / "c")
    assert rc == 2
    assert "Traceback" not in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_encode_tokens_from_an_npz_is_data_error(tmp_path, trained, token_corpus, capsys):
    # np.load gives an NpzFile here, whose .values method used to reach float()
    rc = run("encode", "--tokens", token_corpus, "--width", 8, "--height", 8,
             "--pool", trained / "pool_stage2.pool", "--out", tmp_path / "t.stscq")
    assert rc == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not (tmp_path / "t.stscq").exists()


@pytest.mark.parametrize("stage", ["1", "2"])
def test_non_finite_training_tokens_are_a_data_error(tmp_path, token_corpus, capsys, stage):
    # these used to train to a NaN loss and exit 4, "numeric divergence at step 0";
    # every matrix has one, so the first batch meets it
    tokens, labels, means, spec = synth.load_token_corpus(token_corpus)
    tokens = tokens.copy()
    tokens[:, 1, 2] = np.nan
    synth.save_token_corpus(tmp_path / "nan.npz", tokens, labels, means, spec)
    flags = [M_FLAG, 2, K_FLAG, 4, T_FLAG, 4, "--d", 4, "--steps-stage1", 10, "--steps-stage2", 10, "--router-warmup", 5]
    if stage == "2":
        assert run("train", "--data", token_corpus, "--out-dir", tmp_path / "o", "--stage", "1", *flags) == 0
    capsys.readouterr()
    rc = run("train", "--data", tmp_path / "nan.npz", "--out-dir", tmp_path / "o", "--stage", stage, *flags)
    assert rc == 3
    err = capsys.readouterr().err
    assert "finite" in err and "Traceback" not in err
    assert not (tmp_path / "o" / f"pool_stage{stage}.pool").exists()


def test_default_stages_over_tokens_fail_before_training(tmp_path, token_corpus, capsys, monkeypatch):
    # --stage all used to train stages 1 and 2 and write their four artifacts
    # before stage 3 found it had no images
    monkeypatch.setattr(cli, "stage1", lambda *a, **k: pytest.fail("stage 1 ran"))
    rc = run("train", "--data", token_corpus, "--out-dir", tmp_path / "o", M_FLAG, 2, K_FLAG, 4, T_FLAG, 4, "--d", 4)
    assert rc == 3
    err = capsys.readouterr().err
    assert "image corpus" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.fixture(scope="module")
def numpy_files(tmp_path_factory):
    """A small token corpus saved as a .npz, and its first matrix as a .npy."""
    out = tmp_path_factory.mktemp("numpy")
    spec = synth.MixtureSpec(clusters=2, T=4, d=4, samples=16, seed=0)
    corpus = synth.make_token_corpus(spec)
    synth.save_token_corpus(out / "tokens.npz", *corpus, spec)
    np.save(out / "tokens.npy", corpus[0][0])
    return out, corpus, spec


@pytest.mark.parametrize("kind", ["npz", "npy"])
@settings(deadline=None, derandomize=True, max_examples=300)
# positions in the first 128 bytes (the .npy header, the zip's first member
# header), the last 128 (the zip's central directory) and anywhere
@given(edit=st.sampled_from(["cut", "flip"]),
       at=st.integers(0, 8 * 128) | st.integers(-8 * 128, -1) | st.integers(0, 2**16))
def test_token_files_survive_truncation_and_bit_flips(numpy_files, trained, kind, edit, at):
    """A cut or flipped token file raises StscqError, which the CLI reports with exit 2 or 3
    and no traceback, or it loads the saved arrays. A .npy has no checksum, so a
    flipped value may also load, as the array whose saved bytes are the edited file."""
    out, (tokens, labels, means), spec = numpy_files
    raw = bytearray((out / f"tokens.{kind}").read_bytes())
    if edit == "cut":
        del raw[at % len(raw):]
    else:
        at %= 8 * len(raw)
        raw[at // 8] ^= 1 << (at % 8)
    path = out / f"edited.{kind}"
    path.write_bytes(bytes(raw))
    try:
        loaded = synth.load_token_corpus(path) if kind == "npz" else synth.load_arrays(path)
    except StscqError:
        pool = trained / "pool_stage2.pool"
        if kind == "npz":
            argv = ["eval", "--data", path, "--pool", pool, "--out", out / "rd.csv"]
        else:
            argv = ["encode", "--tokens", path, "--width", 8, "--height", 8, "--pool", pool, "--out", out / "t.stscq"]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = run(*argv)
        assert rc in (2, 3) and "Traceback" not in err.getvalue()
        return
    if kind == "npz":
        assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(loaded[:3], (tokens, labels, means)))
        assert loaded[3] == spec
    else:
        resaved = io.BytesIO()
        np.save(resaved, loaded)
        assert (np.array_equal(loaded, tokens[0]) and loaded.dtype == tokens.dtype) or resaved.getvalue() == raw


@pytest.fixture
def indexed_files(tmp_path):
    """A frozen T=16 pool at the smallest K that gets a window index, saved with it, and a token file."""
    from stscq.codebook import CodebookPool, save_pool
    from stscq.window import MIN_K

    rng = np.random.default_rng(3)
    save_pool(CodebookPool(rng.standard_normal((2, 16, MIN_K, 4)), frozen=True), tmp_path / "p.pool")
    np.save(tmp_path / "t.npy", rng.standard_normal((16, 4)))
    assert (tmp_path / "p.pool.pidx").exists()
    return tmp_path


def encode_tokens(d, pool, out):
    return run("encode", "--tokens", d / "t.npy", "--pool", pool, "--width", 16, "--height", 16, "--out", out)


def test_encode_gives_the_same_bytes_with_a_stale_rebuilt_or_missing_index(indexed_files, capsys):
    import shutil

    from stscq.codebook import load_pool

    d = indexed_files
    assert encode_tokens(d, d / "p.pool", d / "indexed.stscq") == 0
    want = (d / "indexed.stscq").read_bytes()
    # a copy of the pool and its index is another file: the index is stale, and ignored
    (d / "copy").mkdir()
    for name in ("p.pool", "p.pool.pidx"):
        shutil.copy2(d / name, d / "copy" / name)
    assert load_pool(d / "copy" / "p.pool").index is None
    assert encode_tokens(d, d / "copy" / "p.pool", d / "stale.stscq") == 0
    capsys.readouterr()
    assert run("index", "--pool", d / "copy" / "p.pool") == 0
    assert "wrote" in capsys.readouterr().out
    assert load_pool(d / "copy" / "p.pool").index is not None
    assert encode_tokens(d, d / "copy" / "p.pool", d / "rebuilt.stscq") == 0
    (d / "p.pool.pidx").unlink()
    assert encode_tokens(d, d / "p.pool", d / "dense.stscq") == 0
    for name in ("stale.stscq", "rebuilt.stscq", "dense.stscq"):
        assert (d / name).read_bytes() == want, name


@pytest.mark.parametrize("fault", ["magic", "header", "cut", "trailing"])
def test_encode_with_a_broken_index_is_data_error_and_decode_never_opens_it(indexed_files, capsys, fault):
    d = indexed_files
    assert encode_tokens(d, d / "p.pool", d / "ok.stscq") == 0
    pidx = d / "p.pool.pidx"
    raw = pidx.read_bytes()
    pidx.write_bytes({"magic": b"X" + raw[1:], "header": raw[:20], "cut": raw[:-1], "trailing": raw + b"\0"}[fault])
    capsys.readouterr()
    assert encode_tokens(d, d / "p.pool", d / "bad.stscq") == 3
    assert "Traceback" not in capsys.readouterr().err
    assert not (d / "bad.stscq").exists()
    assert run("decode", "--stream", d / "ok.stscq", "--pool", d / "p.pool", "--out", d / "back.npy") == 0
    # rebuilding replaces the broken index
    assert run("index", "--pool", d / "p.pool") == 0
    assert encode_tokens(d, d / "p.pool", d / "again.stscq") == 0
    assert (d / "again.stscq").read_bytes() == (d / "ok.stscq").read_bytes()


def test_index_command_exit_codes(indexed_files, capsys):
    from stscq.codebook import CodebookPool, save_pool

    d = indexed_files
    assert run("index", "--pool", d / "missing.pool") == 3
    (d / "cut.pool").write_bytes((d / "p.pool").read_bytes()[:100])
    assert run("index", "--pool", d / "cut.pool") == 3
    assert not (d / "cut.pool.pidx").exists()
    assert "Traceback" not in capsys.readouterr().err
    # a pool that gets no index: told why, and an old index beside it goes
    save_pool(CodebookPool(np.zeros((2, 16, 4, 4)), frozen=True), d / "small.pool")
    (d / "small.pool.pidx").write_bytes((d / "p.pool.pidx").read_bytes())
    assert run("index", "--pool", d / "small.pool") == 0
    assert "no window index" in capsys.readouterr().out
    assert not (d / "small.pool.pidx").exists()
