import numpy as np
import pytest

from stscq.errors import BadSpec
from stscq.synth import (
    ImageCorpusSpec,
    MixtureSpec,
    load_image_corpus,
    load_token_corpus,
    make_image_corpus,
    make_token_corpus,
    save_image_corpus,
    save_token_corpus,
)


def test_token_corpus_shapes_and_balance():
    spec = MixtureSpec(clusters=4, T=3, d=2, samples=100, seed=0)
    tokens, labels, means = make_token_corpus(spec)
    assert tokens.shape == (100, 3, 2)
    assert means.shape == (4, 3, 2)
    assert np.bincount(labels).tolist() == [25, 25, 25, 25]
    # any prefix stays balanced within one sample
    prefix = np.bincount(labels[:10], minlength=4)
    assert prefix.max() - prefix.min() <= 1


def test_token_corpus_deterministic():
    spec = MixtureSpec(seed=7, samples=64)
    a, _, _ = make_token_corpus(spec)
    b, _, _ = make_token_corpus(MixtureSpec(seed=7, samples=64))
    assert np.array_equal(a, b)
    c, _, _ = make_token_corpus(MixtureSpec(seed=8, samples=64))
    assert not np.array_equal(a, c)


def test_token_corpus_clusters_are_separated():
    spec = MixtureSpec(clusters=3, T=2, d=4, samples=300, separation=5.0, sigma=0.5, seed=1)
    tokens, labels, means = make_token_corpus(spec)
    for k in range(3):
        cluster = tokens[labels == k]
        # samples sit close to their own mean relative to the others
        own = ((cluster - means[k]) ** 2).sum(axis=(1, 2))
        for j in range(3):
            if j == k:
                continue
            other = ((cluster - means[j]) ** 2).sum(axis=(1, 2))
            assert (own < other).all()


def test_token_corpus_bad_spec():
    with pytest.raises(BadSpec):
        make_token_corpus(MixtureSpec(clusters=0))
    with pytest.raises(BadSpec):
        make_token_corpus(MixtureSpec(sigma=-1.0))


def test_token_corpus_file_round_trip(tmp_path):
    spec = MixtureSpec(samples=32, seed=3)
    tokens, labels, means = make_token_corpus(spec)
    path = tmp_path / "c.npz"
    save_token_corpus(path, tokens, labels, means, spec)
    t2, l2, m2, s2 = load_token_corpus(path)
    assert np.array_equal(tokens, t2)
    assert np.array_equal(labels, l2)
    assert np.array_equal(means, m2)
    assert s2 == spec


def test_image_corpus_round_trip(tmp_path):
    spec = ImageCorpusSpec(clusters=2, width=16, height=16, patch_size=4, samples=6, seed=0)
    images, labels = make_image_corpus(spec)
    assert len(images) == 6
    assert images[0].data.shape == (16, 16, 1)
    manifest = save_image_corpus(tmp_path / "imgs", images, labels, spec)
    back, l2, s2 = load_image_corpus(manifest)
    assert np.array_equal(labels, l2)
    assert s2 == spec
    # 8-bit quantization on disk
    for a, b in zip(images, back):
        assert np.abs(a.data - b.data).max() <= 0.5 / 255 + 1e-9


def test_image_corpus_color(tmp_path):
    spec = ImageCorpusSpec(clusters=2, width=8, height=8, channels=3, patch_size=4, samples=4)
    images, labels = make_image_corpus(spec)
    assert images[0].channels == 3
    manifest = save_image_corpus(tmp_path / "rgb", images, labels, spec)
    back, _, _ = load_image_corpus(manifest)
    assert back[0].channels == 3


def test_image_corpus_bad_spec():
    with pytest.raises(BadSpec):
        make_image_corpus(ImageCorpusSpec(width=30, patch_size=8))
    with pytest.raises(BadSpec):
        make_image_corpus(ImageCorpusSpec(channels=2))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_spread_is_bad_spec(value):
    for spec in (MixtureSpec(sigma=value), MixtureSpec(separation=value), ImageCorpusSpec(sigma=value)):
        with pytest.raises(BadSpec):
            spec.validate()
