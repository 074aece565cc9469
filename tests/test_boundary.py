"""The CLI's one error boundary: outside input that the library refuses raises a
StscqError, which `cli.main` reports with exit 2 (configuration) or 3 (data) and
no output; any other exception is a bug and escapes with its traceback."""

import contextlib
import io
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stscq import cli, synth
from stscq.codebook import Codebook, CodebookPool, TokenSpecificGroup, bit_width, save_pool, utilization
from stscq.errors import BadSpec, RangeViolation, ShapeMismatch
from stscq.latent import ImageBuffer, encode, fit_pca, save_pca
from stscq.quantizer import quantize_corpus, quantize_group, quantize_routed
from stscq.router import _finite_probs, init_router, load_router, route_learned, route_naive, save_router
from stscq.trainer import TrainConfig, stage1


@pytest.mark.parametrize("call, error", [
    (lambda: TrainConfig(M=0).validate(), BadSpec),
    (lambda: TrainConfig(router_warmup=-1).validate(), BadSpec),
    (lambda: TrainConfig(lam2=float("inf")).validate(), BadSpec),
    (lambda: TrainConfig(learning_rate=0.0).validate(), BadSpec),
    (lambda: quantize_corpus(np.zeros((1, 1, 1)), CodebookPool(np.zeros((1, 1, 1, 1))), policy="xx"), BadSpec),
    (lambda: Codebook(np.zeros(3)), ShapeMismatch),
    (lambda: TokenSpecificGroup(np.zeros((2, 2))), ShapeMismatch),
    (lambda: TokenSpecificGroup([]), ShapeMismatch),
    (lambda: CodebookPool([]), ShapeMismatch),
    (lambda: CodebookPool([TokenSpecificGroup(np.zeros((1, 2, 2)), 3), TokenSpecificGroup(np.zeros((1, 3, 2)), 3)]),
     ShapeMismatch),
    (lambda: utilization(np.zeros((3, 4)), 5), ShapeMismatch),
    (lambda: bit_width(0), RangeViolation),
], ids=["count", "warmup", "weight", "learning-rate", "policy", "codebook", "group-codes", "empty-group",
        "empty-pool", "groups-disagree", "histograms", "bit-width"])
def test_every_refusal_that_was_a_value_error_is_typed(call, error):
    with pytest.raises(error):
        call()


def small_pool(nan_at=None):
    """M=3 groups of K=4 codes for T=2 tokens of d=2, with a NaN at `nan_at` if given."""
    codes = np.random.default_rng(8).standard_normal((3, 2, 4, 2))
    if nan_at is not None:
        codes[nan_at] = np.nan
    return CodebookPool(codes, frozen=True)


@pytest.mark.parametrize("tokens", [np.full((2, 2), "0.5"), np.full((2, 2), 0.5j), np.zeros(2, dtype="f8,f8")],
                         ids=["string", "complex", "structured"])
def test_tokens_of_a_non_real_dtype_are_a_shape_mismatch(tokens):
    # strings were parsed as floats, complex values lost their imaginary part,
    # and a record array ended in numpy's TypeError
    pool = small_pool()
    cfg = TrainConfig(M=3, K=4, T=2, d=2)
    stacked = np.stack([tokens] * 8)
    for call in (lambda: route_naive(tokens, pool), lambda: quantize_group(tokens, pool.groups[0]),
                 lambda: quantize_routed(tokens, pool), lambda: quantize_corpus(stacked, pool),
                 lambda: quantize_corpus([tokens], pool), lambda: stage1(stacked, cfg)):
        with pytest.raises(ShapeMismatch, match="real tokens"):
            call()


def test_nn_routing_refuses_a_group_whose_error_is_nan():
    # argmin takes the first NaN, so group 1 was chosen and its NaN error kept
    pool = small_pool(nan_at=(1, 1, 3, 0))
    with pytest.raises(RangeViolation, match="not finite"):
        route_naive(np.zeros((2, 2)), pool)
    for n in (1, 5):  # one image is searched by the difference form alone, more are screened first
        with pytest.raises(RangeViolation, match="not finite"):
            quantize_corpus(np.zeros((n, 2, 2)), pool)


@pytest.mark.filterwarnings("error")
def test_cr_routing_refuses_non_finite_probabilities():
    # argmax over NaN probabilities chose group 0; the refusal used to follow
    # numpy's overflow and invalid-value warnings
    router = init_router(2, 3, h=4)
    router.W1[:], router.b1[:], router.W2[:] = 0.0, 1e300, 1e300  # finite weights whose logits overflow
    with pytest.raises(RangeViolation, match="not finite"):
        _finite_probs(np.zeros((4, 2)), router)
    with pytest.raises(RangeViolation, match="not finite"):
        route_learned(np.zeros((2, 2)), router)
    with pytest.raises(RangeViolation, match="not finite"):
        quantize_corpus(np.zeros((4, 2, 2)), small_pool(), "cr", router)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pixel", [np.nan, np.inf, -np.inf, 1e200], ids=["nan", "inf", "-inf", "unsquarable"])
def test_fit_pca_refuses_a_pixel_it_cannot_fit(pixel):
    # a NaN pixel ended in numpy's LinAlgError, "SVD did not converge"
    images = [ImageBuffer.from_array(np.full((8, 8), 0.5)) for _ in range(3)]
    images[1].data[5, 2, 0] = pixel
    with pytest.raises(RangeViolation, match="finite"):
        fit_pca(images, 4, 2)


def test_fit_pca_refuses_a_corpus_of_mixed_channel_counts():
    # np.concatenate's bare ValueError; images of other sizes stay one corpus
    rng = np.random.default_rng(9)
    gray = [ImageBuffer.from_array(rng.uniform(0, 1, size)) for size in ((8, 8), (16, 4))]
    assert fit_pca(gray, 4, 2).basis.shape == (2, 16)
    with pytest.raises(ShapeMismatch, match="channel"):
        fit_pca([*gray, ImageBuffer.from_array(rng.uniform(0, 1, (8, 8, 3)))], 4, 2)


def run(*argv):
    """(exit code, stderr) of one CLI call; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([str(a) for a in argv])
    return rc, err.getvalue()


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    """Toy artifacts that fit each other: 8x8 images in 4x4 patches (T=4), a d=4 PCA,
    an M=2, K=4 token-specific pool, a router, a token .npz and .npy, and a stream."""
    d = tmp_path_factory.mktemp("toy")
    spec = synth.ImageCorpusSpec(clusters=2, width=8, height=8, patch_size=4, samples=6, seed=0)
    images, labels = synth.make_image_corpus(spec)
    synth.save_image_corpus(d / "imgs", images, labels, spec)
    pca = fit_pca(images, 4, 4)
    save_pca(pca, d / "p.pca")
    tokens = np.stack([encode(img, pca).values for img in images])
    rng = np.random.default_rng(0)
    # (M=2, T=4, K=4, d=4): each token's codes drawn from that token's values
    codes = tokens[rng.integers(len(tokens), size=(2, 4, 4)), np.arange(4)[:, None]]
    save_pool(CodebookPool(codes, frozen=True), d / "p.pool")
    save_router(init_router(4, 2, h=8), d / "r.rtr")
    mix = synth.MixtureSpec(clusters=2, T=4, d=4, samples=8, seed=0)
    synth.save_token_corpus(d / "t.npz", *synth.make_token_corpus(mix), mix)
    np.save(d / "t.npy", tokens[0])
    assert run("encode", "--image", d / "imgs" / "img_00000.pgm", "--pca", d / "p.pca",
               "--pool", d / "p.pool", "--out", d / "s.stscq")[0] == 0
    return d


# --- one test per refused input; each passed silently, or failed with a traceback
# or through the ValueError leg that cli.main no longer has


@pytest.mark.parametrize("tokens", [
    np.zeros(4, dtype=[("a", "f8"), ("b", "f8"), ("c", "f8"), ("d", "f8")]),  # a TypeError traceback
    np.full((4, 4), "0.5"),  # numpy's ValueError: exit 2, "config error"
    np.full((4, 4), 0.5 + 0.5j),  # exit 0, with the imaginary part dropped
], ids=["structured", "string", "complex"])
def test_encode_tokens_of_a_non_real_dtype_is_a_data_error(toy, tmp_path, tokens):
    np.save(tmp_path / "t.npy", tokens)
    rc, err = run("encode", "--tokens", tmp_path / "t.npy", "--width", 8, "--height", 8,
                  "--pool", toy / "p.pool", "--out", tmp_path / "s.stscq")
    assert rc == 3 and "real tokens" in err
    assert not (tmp_path / "s.stscq").exists()


def test_eval_of_string_tokens_is_a_data_error(toy, tmp_path):
    # quantize_corpus parsed the strings as floats, then the latent error
    # subtracted the strings themselves: a UFuncTypeError traceback
    z = synth.load_arrays(toy / "t.npz")
    np.savez(tmp_path / "t.npz", **{**z, "tokens": z["tokens"].astype(str)})
    rc, err = run("eval", "--data", tmp_path / "t.npz", "--pool", toy / "p.pool", "--out", tmp_path / "rd.csv")
    assert rc == 3 and "real tokens" in err
    assert not (tmp_path / "rd.csv").exists()


def test_eval_of_a_token_corpus_with_scalar_labels_is_a_data_error(toy, tmp_path):
    # len() of the 0-d labels array raised TypeError in routing_histogram
    np.savez(tmp_path / "t.npz", **{**synth.load_arrays(toy / "t.npz"), "labels": np.array(3)})
    rc, err = run("eval", "--data", tmp_path / "t.npz", "--pool", toy / "p.pool", "--out", tmp_path / "rd.csv")
    assert rc == 3 and "labels of shape ()" in err
    assert not (tmp_path / "rd.csv").exists()


def edit_manifest(toy, tmp_path, change):
    meta = json.loads((toy / "imgs" / "manifest.json").read_text())
    change(meta)
    for name in {e["file"] for e in meta["images"] if isinstance(e.get("file"), str)}:
        shutil.copy(toy / "imgs" / name, tmp_path / name)
    (tmp_path / "manifest.json").write_text(json.dumps(meta))
    return tmp_path / "manifest.json"


@pytest.mark.parametrize("entry, word", [({"file": 5}, "file"), ({"label": [1]}, "label"), ({"label": True}, "label")],
                         ids=["file-int", "label-list", "label-bool"])
def test_a_mistyped_manifest_entry_is_a_config_error(toy, tmp_path, entry, word):
    # "file": 5 ended in a TypeError traceback; "label": [1] reached exit 2
    # through numpy's ValueError, naming no entry
    manifest = edit_manifest(toy, tmp_path, lambda meta: meta["images"][0].update(entry))
    rc, err = run("eval", "--data", manifest, "--pool", toy / "p.pool", "--pca", toy / "p.pca",
                  "--out", tmp_path / "rd.csv")
    assert rc == 2 and word in err and "Traceback" not in err
    assert not (tmp_path / "rd.csv").exists()


def test_a_manifest_without_images_is_an_empty_corpus(toy, tmp_path):
    # exit 2 with numpy's "need at least one array to stack"
    manifest = edit_manifest(toy, tmp_path, lambda meta: meta.update(images=[]))
    rc, err = run("eval", "--data", manifest, "--pool", toy / "p.pool", "--pca", toy / "p.pca",
                  "--out", tmp_path / "rd.csv")
    assert rc == 3 and "no images" in err
    assert not (tmp_path / "rd.csv").exists()


def test_a_manifest_image_of_another_geometry_is_a_data_error(toy, tmp_path):
    # an image whose header disagrees with the spec gave the corpus matrices of two
    # token counts, which numpy refused to stack: exit 2 through its ValueError
    manifest = edit_manifest(toy, tmp_path, lambda meta: None)
    pgm = tmp_path / "img_00001.pgm"
    # half the pixels, so the file is a whole 8x4 image rather than one with bytes left over
    pgm.write_bytes(pgm.read_bytes().replace(b"\n8 8\n", b"\n8 4\n", 1)[:-32])
    rc, err = run("eval", "--data", manifest, "--pool", toy / "p.pool", "--pca", toy / "p.pca",
                  "--out", tmp_path / "rd.csv")
    assert rc == 3 and "geometry" in err
    assert not (tmp_path / "rd.csv").exists()


@pytest.mark.parametrize("where", ["manifest", "config", "npz-spec"])
def test_text_that_is_not_json_is_a_config_error_naming_its_source(toy, tmp_path, where):
    # these reached exit 2 only as json's ValueError, which named no file
    bad = b"{\xff"
    if where == "manifest":
        (tmp_path / "m.json").write_bytes(bad)
        argv, source = ["eval", "--data", tmp_path / "m.json", "--pool", toy / "p.pool", "--pca", toy / "p.pca"], "m.json"
    elif where == "config":
        (tmp_path / "c.json").write_bytes(bad)
        argv, source = ["train", "--data", toy / "t.npz", "--config", tmp_path / "c.json"], "c.json"
    else:
        np.savez(tmp_path / "t.npz", **{**synth.load_arrays(toy / "t.npz"), "spec": "{"})
        argv, source = ["eval", "--data", tmp_path / "t.npz", "--pool", toy / "p.pool"], "t.npz"
    rc, err = run(*argv, "--out" if argv[0] == "eval" else "--out-dir", tmp_path / "out")
    assert rc == 2 and source in err and "JSON" in err
    assert not (tmp_path / "out").exists()


def test_a_non_integer_seed_variable_is_a_config_error(tmp_path, monkeypatch):
    # int()'s ValueError reached exit 2 without naming the variable
    monkeypatch.setenv("STSCQ_SEED", "abc")
    rc, err = run("synth", "--kind", "tokens", "--out", tmp_path / "t.npz")
    assert rc == 2 and "STSCQ_SEED" in err
    assert not (tmp_path / "t.npz").exists()


@pytest.mark.parametrize("argv", [["--seed", -1], ["--kind", "images", "--patch-size", 0],
                                  ["--kind", "images", "--width", -8]], ids=["negative-seed", "patch-0", "width"])
def test_a_synth_size_or_seed_out_of_range_is_a_config_error(tmp_path, argv):
    # numpy's ValueError (a negative seed or size) reached exit 2 through the
    # ValueError leg; patch size 0 ended in a ZeroDivisionError traceback
    rc, err = run("synth", *argv, "--out", tmp_path / "c")
    assert rc == 2 and ">= " in err
    assert not (tmp_path / "c").exists()


def test_m_values_that_are_not_integers_are_refused_by_argparse(toy, tmp_path, capsys):
    # int()'s ValueError reached exit 2 through the ValueError leg, after the corpus was loaded
    with pytest.raises(SystemExit) as exited:
        cli.main(["sweep", "--data", str(toy / "t.npz"), "--m-values", "a,2", "--out", str(tmp_path / "s.csv")])
    assert exited.value.code == 2
    assert "invalid group_counts value: 'a,2'" in capsys.readouterr().err


def test_a_value_error_is_a_bug_that_escapes_main(toy, tmp_path, monkeypatch):
    # cli.main used to report every ValueError as a configuration error, exit 2
    def broken(*args, **kwargs):
        raise ValueError("a bug")

    monkeypatch.setattr(cli, "eval_rd_tokens", broken)
    with pytest.raises(ValueError, match="a bug"):
        run("eval", "--data", toy / "t.npz", "--pool", toy / "p.pool", "--out", tmp_path / "rd.csv")


def nan_pool(toy, tmp_path):
    """The toy pool with a NaN in group 1's first code of token 0."""
    from stscq.codebook import load_pool

    codes = np.array(load_pool(toy / "p.pool").codes)
    codes[1, 0, 0, 0] = np.nan
    save_pool(CodebookPool(codes, frozen=True), tmp_path / "nan.pool")
    return tmp_path / "nan.pool"


@pytest.mark.parametrize("command", ["encode", "eval"])
def test_a_nan_pool_code_is_a_data_error_before_any_output(toy, tmp_path, command):
    # argmin takes the first NaN, so NN routing chose the NaN group: encode
    # wrote a stream that decode refuses, and eval wrote nan,nan,nan; both exit 0
    pool = nan_pool(toy, tmp_path)
    if command == "encode":
        argv = ["encode", "--image", toy / "imgs" / "img_00000.pgm", "--pca", toy / "p.pca", "--out", tmp_path / "o"]
    else:
        argv = ["eval", "--data", toy / "imgs" / "manifest.json", "--pca", toy / "p.pca", "--out", tmp_path / "o"]
    rc, err = run(*argv, "--pool", pool)
    assert rc == 3 and "not finite" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("weights", ["nan", "overflow"])
@pytest.mark.parametrize("command", ["encode", "eval"])
def test_a_router_that_scores_non_finite_is_a_data_error(toy, tmp_path, command, weights):
    # both policies exited 0 with argmax of NaN probabilities, group 0
    router = load_router(toy / "r.rtr")
    if weights == "nan":
        router.W1[0, 0] = np.nan  # refused when the file is read
    else:
        router.W1[:], router.b1[:], router.W2[:] = 0.0, 1e300, 1e300  # finite, but the logits overflow
    save_router(router, tmp_path / "bad.rtr")
    if command == "encode":
        argv = ["encode", "--tokens", toy / "t.npy", "--width", 8, "--height", 8]
    else:
        argv = ["eval", "--data", toy / "t.npz"]
    rc, err = run(*argv, "--pool", toy / "p.pool", "--router", tmp_path / "bad.rtr", "--policy", "cr",
                  "--out", tmp_path / "o")
    assert rc == 3 and "finite" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


# --- fuzz: every file a subcommand reads, cut short or with one bit flipped

TRAIN = ["--M", 2, "--K", 4, "--T", 4, "--d", 4, "--steps-stage1", 4, "--steps-stage2", 4,
         "--router-warmup", 2, "--batch-size", 4, "--seed", 0]


def commands(toy, x, out):
    """The CLI calls that read the file kind `x` names, with `x` replaced by the edited copy."""
    p, c, s, n = toy / "p.pool", toy / "p.pca", toy / "s.stscq", toy / "t.npz"
    img = toy / "imgs" / "img_00000.pgm"
    return {
        "npy": [["encode", "--tokens", x, "--width", 8, "--height", 8, "--pool", p, "--out", out / "s"]],
        "npz": [["eval", "--data", x, "--pool", p, "--out", out / "rd.csv"],
                ["train", "--data", x, "--out-dir", out / "run", "--stage", 1, *TRAIN],
                ["sweep", "--data", x, "--m-values", "1,2", "--out", out / "rd.csv", *TRAIN]],
        "manifest": [["eval", "--data", x, "--pool", p, "--pca", c, "--out", out / "rd.csv"],
                     ["train", "--data", x, "--out-dir", out / "run", "--stage", 1, *TRAIN]],
        "pnm": [["encode", "--image", x, "--pca", c, "--pool", p, "--out", out / "s"],
                ["eval", "--data", x.parent / "manifest.json", "--pool", p, "--pca", c, "--out", out / "rd.csv"]],
        "pool": [["encode", "--image", img, "--pca", c, "--pool", x, "--out", out / "s"],
                 ["decode", "--stream", s, "--pool", x, "--pca", c, "--out", out / "r.pgm"],
                 ["eval", "--data", n, "--pool", x, "--out", out / "rd.csv"]],
        "rtr": [["eval", "--data", n, "--pool", p, "--router", x, "--policy", "cr", "--out", out / "rd.csv"]],
        "pca": [["encode", "--image", img, "--pca", x, "--pool", p, "--out", out / "s"],
                ["decode", "--stream", s, "--pool", p, "--pca", x, "--out", out / "r.pgm"]],
        "stream": [["decode", "--stream", x, "--pool", p, "--pca", c, "--out", out / "r.pgm"],
                   ["decode", "--stream", x, "--pool", p, "--out", out / "r.npy"]],
    }


SOURCES = {"npy": "t.npy", "npz": "t.npz", "manifest": "imgs/manifest.json", "pnm": "imgs/img_00001.pgm",
           "pool": "p.pool", "rtr": "r.rtr", "pca": "p.pca", "stream": "s.stscq"}


@pytest.fixture(scope="module")
def fuzz_dir(toy, tmp_path_factory):
    """A copy of the image corpus, so an edited PGM or manifest is the one its manifest lists."""
    d = tmp_path_factory.mktemp("fuzz")
    shutil.copytree(toy / "imgs", d / "imgs")
    return d


@pytest.mark.parametrize("kind", list(SOURCES))
@settings(deadline=None, derandomize=True, max_examples=80)
# positions in the first 64 bytes, where every format's header is, and anywhere
@given(edit=st.sampled_from(["cut", "flip"]), at=st.integers(0, 8 * 64) | st.integers(0, 2**16))
def test_every_subcommand_survives_cut_and_flipped_inputs(toy, fuzz_dir, kind, edit, at):
    """Exit 0, 2, 3 or 4 and no exception out of cli.main, and an rd.csv written with
    exit 0 holds no NaN."""
    raw = bytearray((toy / SOURCES[kind]).read_bytes())
    if edit == "cut":
        del raw[at % len(raw):]
    else:
        at %= 8 * len(raw)
        raw[at // 8] ^= 1 << (at % 8)
    x = fuzz_dir / SOURCES[kind]
    x.write_bytes(bytes(raw))
    try:
        for argv in commands(toy, x, fuzz_dir)[kind]:
            shutil.rmtree(fuzz_dir / "run", ignore_errors=True)
            (fuzz_dir / "rd.csv").unlink(missing_ok=True)
            rc, err = run(*argv)
            assert rc in (0, 2, 3, 4) and "Traceback" not in err
            if rc == 0 and (fuzz_dir / "rd.csv").exists():
                assert "nan" not in (fuzz_dir / "rd.csv").read_text().lower()
    finally:
        shutil.copy(toy / SOURCES[kind], x)
