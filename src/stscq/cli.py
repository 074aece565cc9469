"""Command-line surface: synth, train, encode, decode, eval, sweep, index.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric divergence.
STSCQ_SEED is the global seed fallback when no --seed is given.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import artifact, bitstream, synth, window
from .codebook import index_pool, load_pool, save_pool
from .errors import BadSpec, DivergenceDetected, HeaderMismatch, ShapeMismatch, StscqError
from .latent import decode as pca_decode
from .latent import encode as pca_encode
from .latent import fit_pca, load_pca, read_pnm, save_pca, token_count, write_pnm
from .metrics import eval_rd_tokens, routing_histogram, write_gnuplot_script, write_histogram_json, write_rd_csv
from .quantizer import dequantize, quantize_routed
from .router import load_router, save_router
from .trainer import TrainConfig, TrainReport, stage1, stage2, stage3

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4
# synth's flags, (flag, type) by field: every field of either spec, with --tokens and --dim for T and d
_SYNTH_FLAGS = {f.name: ({"T": "--tokens", "d": "--dim"}.get(f.name, "--" + f.name.replace("_", "-")), type(f.default))
                for cls in (synth.MixtureSpec, synth.ImageCorpusSpec) for f in fields(cls)}


def _build_spec(cls, raw, args):
    """synth.build_spec of `raw`, where each attribute of `args` named after a
    field and not None wins; STSCQ_SEED fills a missing seed."""
    overrides = {f.name: getattr(args, f.name) for f in fields(cls) if getattr(args, f.name, None) is not None}
    if isinstance(raw, dict) and "seed" not in raw:
        try:
            overrides.setdefault("seed", int(os.environ.get("STSCQ_SEED", "0")))
        except ValueError:
            raise BadSpec(f"STSCQ_SEED must be an integer, not {os.environ['STSCQ_SEED']!r}") from None
    return synth.build_spec(cls, raw, overrides)


def _load_corpus(path, make_pca):
    """(tokens, labels, pca, images) from a token .npz, where pca and images are
    None, or from an image manifest encoded with make_pca(images, spec)."""
    if Path(path).suffix == ".npz":
        tokens, labels, _, _ = synth.load_token_corpus(path)
        return tokens, labels, None, None
    images, labels, spec = synth.load_image_corpus(path)
    pca = make_pca(images, spec)
    return np.stack([pca_encode(img, pca).values for img in images]), labels, pca, images


def _training_corpus(args):
    """The TrainConfig and the corpus of train and sweep; a manifest's PCA is fitted at the config's d."""
    raw = synth.parse_json(Path(args.config).read_bytes(), args.config) if args.config else {}
    cfg = _build_spec(TrainConfig, raw, args)
    corpus = _load_corpus(args.data, lambda images, spec: fit_pca(images, spec.patch_size, cfg.d, seed=cfg.seed))
    if corpus[0].shape[1:] != (cfg.T, cfg.d):
        raise BadSpec(f"data tokens are {corpus[0].shape[1:]} but config says (T={cfg.T}, d={cfg.d})")
    return cfg, corpus


def cmd_synth(args) -> int:
    cls = synth.MixtureSpec if args.kind == "tokens" else synth.ImageCorpusSpec
    taken = {f.name for f in fields(cls)}
    stray = [flag for name, (flag, _) in _SYNTH_FLAGS.items() if name not in taken and getattr(args, name) is not None]
    if stray:
        raise BadSpec(f"synth --kind {args.kind} takes no {', '.join(stray)}")
    spec = _build_spec(cls, {}, args)
    if args.kind == "tokens":
        tokens, labels, means = synth.make_token_corpus(spec)
        synth.save_token_corpus(args.out, tokens, labels, means, spec)
        print(f"wrote {args.out}: {tokens.shape[0]} token matrices, {spec.clusters} clusters")
    else:
        images, labels = synth.make_image_corpus(spec)
        manifest = synth.save_image_corpus(args.out, images, labels, spec)
        print(f"wrote {manifest}: {len(images)} images, {spec.clusters} clusters")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg, (tokens, _, pca, images) = _training_corpus(args)
    stages = [1, 2, 3] if args.stage == "all" else [int(args.stage)]
    if 3 in stages and images is None:
        raise StscqError("stage 3 needs an image corpus (manifest), not raw tokens")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    report = TrainReport()

    if 1 in stages:
        pool, router = stage1(tokens, cfg, report=report)
        save_pool(pool, out / "pool_stage1.pool")
        save_router(router, out / "router_stage1.rtr")
    if 2 in stages:
        p1 = out / "pool_stage1.pool"
        if not p1.exists():
            raise StscqError("stage 2 requires stage-1 artifacts; run --stage 1 first")
        pool, router = stage2(tokens, load_pool(p1), load_router(out / "router_stage1.rtr"), cfg, report=report)
        save_pool(pool, out / "pool_stage2.pool")
        save_router(router, out / "router_stage2.rtr")
    if 3 in stages:
        p2 = out / "pool_stage2.pool"
        if not p2.exists():
            raise StscqError("stage 3 requires stage-2 artifacts; run --stage 2 first")
        pool = load_pool(p2)
        refit = stage3(images, pool, pca, cfg, report=report)
        save_pca(refit, out / "pca_stage3.pca")
    if pca is not None:
        save_pca(pca, out / "pca.pca")
    (out / "report.json").write_text(report.to_json() + "\n")
    print(f"artifacts written to {out}")
    return EXIT_OK


def _check_geometry(header: bitstream.StreamHeader, pca, source) -> None:
    """HeaderMismatch unless the header's image has the PCA file's channels and
    tiles into header.T patches of its patch size."""
    p = pca.patch_size
    if header.channels != pca.channels:
        raise HeaderMismatch(f"the image has {header.channels} channels, {source} has {pca.channels}")
    if header.width % p or header.height % p or token_count(header.width, header.height, p) != header.T:
        raise HeaderMismatch(f"a {header.width}x{header.height} image is not {header.T} patches of {p}x{p}")


def cmd_encode(args) -> int:
    if args.image and not args.pca:
        raise BadSpec("--image needs --pca")
    if args.tokens and not (args.width and args.height):  # a 0-pixel image has no bits per pixel
        raise BadSpec("--tokens needs the image geometry: give a nonzero --width and --height")
    pool = load_pool(args.pool)
    router = load_router(args.router) if args.router else None
    pca = load_pca(args.pca) if args.pca else None
    if args.image:
        img = read_pnm(args.image)
        tokens = pca_encode(img, pca).values
        width, height, channels = img.width, img.height, img.channels
    else:
        tokens = synth.load_arrays(args.tokens)
        if not isinstance(tokens, np.ndarray):
            raise ShapeMismatch(f"{args.tokens} holds no single (T, d) token array; save one with numpy.save")
        width, height, channels = args.width, args.height, pca.channels if pca else 1
    header = bitstream.StreamHeader(
        M=pool.M, K=pool.K, T=pool.T, width=width, height=height, channels=channels
    )
    if pca is not None:
        _check_geometry(header, pca, args.pca)
    q = quantize_routed(tokens, pool, policy=args.policy, router=router)
    stream = bitstream.serialize(q, header)
    artifact.rewrite(args.out, stream)
    rate = bitstream.bpp(pool.T, pool.K, pool.M, width, height, include_header=args.include_header_bpp)
    print(f"wrote {args.out}: {len(stream)} bytes, bpp={rate:.6f}")
    return EXIT_OK


def cmd_decode(args) -> int:
    pool = load_pool(args.pool)
    raw = Path(args.stream).read_bytes()
    header, _ = bitstream.StreamHeader.unpack(raw)
    q = bitstream.deserialize(raw, pool)
    tokens = dequantize(q, pool)
    if args.pca:
        pca = load_pca(args.pca)
        _check_geometry(header, pca, args.pca)
        img = pca_decode(tokens, pca, header.width, header.height)
        write_pnm(img, args.out)
        print(f"wrote {args.out}: {header.width}x{header.height} image")
    else:
        npy = io.BytesIO()  # np.save to a path would append .npy to a name without it
        np.save(npy, tokens)
        artifact.rewrite(args.out, npy.getbuffer())
        print(f"wrote {args.out}: {tokens.shape} token matrix")
    return EXIT_OK


def cmd_eval(args) -> int:
    pool = load_pool(args.pool)
    router = load_router(args.router) if args.router else None

    def given_pca(images, spec):
        if not args.pca:
            raise BadSpec("eval over an image manifest needs --pca")
        return load_pca(args.pca)

    tokens, labels, pca, images = _load_corpus(args.data, given_pca)
    point = eval_rd_tokens(tokens, pool, policy=args.policy, router=router, images=images, pca=pca)
    hists = routing_histogram(point.groups, pool.M, labels)
    write_rd_csv([point], args.out)
    write_gnuplot_script(args.out, str(args.out) + ".gp")
    write_histogram_json(hists, str(args.out) + ".hist.json")
    print(f"bpp={point.bpp:.6f} latent_mse={point.latent_mse:.6g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg, (tokens, _, pca, images) = _training_corpus(args)
    points = []
    for M in args.m_values:
        mcfg = replace(cfg, M=M)
        report = TrainReport()
        pool, router = stage1(tokens, mcfg, report=report)
        pool, router = stage2(tokens, pool, router, mcfg, report=report)
        for policy in ("nn", "cr"):
            points.append(eval_rd_tokens(tokens, pool, policy=policy, router=router, seed=mcfg.seed,
                                         images=images, pca=pca))
    write_rd_csv(points, args.out)
    write_gnuplot_script(args.out, str(args.out) + ".gp")
    print(f"wrote {args.out}: {len(points)} rate-distortion points")
    return EXIT_OK


def cmd_index(args) -> int:
    reason = index_pool(args.pool)
    if reason:
        print(f"no window index for {args.pool}: {reason}")
    else:
        print(f"wrote {window.index_path(args.pool)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stscq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="generate a synthetic corpus")
    ps.add_argument("--kind", choices=["tokens", "images"], default="tokens")
    ps.add_argument("--out", required=True)
    for name, (flag, kind) in _SYNTH_FLAGS.items():  # an unset flag leaves the spec's default
        ps.add_argument(flag, dest=name, type=kind, default=None)
    ps.set_defaults(func=cmd_synth)

    # the options train and sweep share: the corpus and every TrainConfig field
    training = argparse.ArgumentParser(add_help=False)
    training.add_argument("--data", required=True, help="token .npz or image manifest.json")
    training.add_argument("--config", help="JSON file with TrainConfig fields")
    for f in fields(TrainConfig):
        training.add_argument("--" + f.name.replace("_", "-"), dest=f.name, type=type(f.default), default=None)

    pt = sub.add_parser("train", parents=[training], help="run the three-stage training pipeline")
    pt.add_argument("--out-dir", required=True)
    pt.add_argument("--stage", choices=["1", "2", "3", "all"], default="all")
    pt.set_defaults(func=cmd_train)

    pe = sub.add_parser("encode", help="encode an image or token file to a stream")
    src = pe.add_mutually_exclusive_group(required=True)
    src.add_argument("--image")
    src.add_argument("--tokens")
    pe.add_argument("--pca")
    pe.add_argument("--pool", required=True)
    pe.add_argument("--router")
    pe.add_argument("--policy", choices=["nn", "cr"], default="nn")
    pe.add_argument("--width", type=int, help="image width; required with --tokens")
    pe.add_argument("--height", type=int, help="image height; required with --tokens")
    pe.add_argument("--out", required=True)
    pe.add_argument("--include-header-bpp", action="store_true")
    pe.set_defaults(func=cmd_encode)

    pd = sub.add_parser("decode", help="decode a stream back to an image or tokens")
    pd.add_argument("--stream", required=True)
    pd.add_argument("--pool", required=True)
    pd.add_argument("--pca")
    pd.add_argument("--out", required=True)
    pd.set_defaults(func=cmd_decode)

    pv = sub.add_parser("eval", help="evaluate trained artifacts on a corpus")
    pv.add_argument("--data", required=True, help="token .npz, or image manifest.json with --pca")
    pv.add_argument("--pool", required=True)
    pv.add_argument("--pca")
    pv.add_argument("--router")
    pv.add_argument("--policy", choices=["nn", "cr"], default="nn")
    pv.add_argument("--out", required=True)
    pv.set_defaults(func=cmd_eval)

    def group_counts(text: str) -> list[int]:  # argparse names this type function when int() refuses a count
        return [int(x) for x in text.split(",")]

    pw = sub.add_parser("sweep", parents=[training], help="train and evaluate across group counts")
    pw.add_argument("--m-values", type=group_counts, default="1,2,4,8,16")
    pw.add_argument("--out", required=True)
    pw.set_defaults(func=cmd_sweep)

    pi = sub.add_parser("index", help="build or rebuild the window index beside a pool file")
    pi.add_argument("--pool", required=True)
    pi.set_defaults(func=cmd_index)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BadSpec as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceDetected as e:
        print(f"numeric divergence: {e}", file=sys.stderr)
        return EXIT_DIVERGED
    except (StscqError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
