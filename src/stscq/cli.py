"""Command-line surface: synth, train, encode, decode, eval, sweep.

Exit codes: 0 success, 2 config error, 3 data error, 4 numeric divergence.
STSCQ_SEED is the global seed fallback when no --seed is given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import bitstream, synth
from .codebook import load_pool, save_pool
from .errors import BadSpec, DivergenceDetected, HeaderMismatch, StscqError
from .latent import encode as pca_encode
from .latent import fit_pca, load_pca, read_pnm, save_pca, token_count, write_pnm
from .metrics import (
    eval_rd,
    eval_rd_tokens,
    routing_histogram,
    write_gnuplot_script,
    write_histogram_json,
    write_rd_csv,
)
from .quantizer import dequantize, quantize_routed
from .router import load_router, save_router
from .trainer import TrainConfig, TrainReport, stage1, stage2, stage3

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_DIVERGED = 4


def _default_seed() -> int:
    return int(os.environ.get("STSCQ_SEED", "0"))


def _load_train_config(args) -> TrainConfig:
    values = {}
    if getattr(args, "config", None):
        raw = json.loads(Path(args.config).read_text())
        known = {f.name for f in fields(TrainConfig)}
        unknown = set(raw) - known
        if unknown:
            raise BadSpec(f"unknown config keys: {sorted(unknown)}")
        values.update(raw)
    for f in fields(TrainConfig):
        override = getattr(args, f.name, None)
        if override is not None:
            values[f.name] = override
    values.setdefault("seed", _default_seed())
    cfg = TrainConfig(**values)
    cfg.validate()
    return cfg


def _load_token_data(path: Path, cfg: TrainConfig):
    """Returns (tokens, labels, pca, images). Token .npz or an image manifest."""
    if path.suffix == ".npz":
        tokens, labels, _, _ = synth.load_token_corpus(path)
        return tokens, labels, None, None
    images, labels, spec = synth.load_image_corpus(path)
    pca = fit_pca(images, spec.patch_size, cfg.d, seed=cfg.seed)
    tokens = np.stack([pca_encode(img, pca).values for img in images])
    return tokens, labels, pca, images


def cmd_synth(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if args.kind == "tokens":
        spec = synth.MixtureSpec(
            clusters=args.clusters,
            T=args.tokens,
            d=args.dim,
            samples=args.samples,
            separation=args.separation,
            sigma=args.sigma,
            seed=seed,
        )
        tokens, labels, means = synth.make_token_corpus(spec)
        synth.save_token_corpus(args.out, tokens, labels, means, spec)
        print(f"wrote {args.out}: {tokens.shape[0]} token matrices, {spec.clusters} clusters")
    else:
        spec = synth.ImageCorpusSpec(
            clusters=args.clusters,
            width=args.width,
            height=args.height,
            channels=args.channels,
            patch_size=args.patch_size,
            samples=args.samples,
            sigma=args.sigma,
            seed=seed,
        )
        images, labels = synth.make_image_corpus(spec)
        manifest = synth.save_image_corpus(args.out, images, labels, spec)
        print(f"wrote {manifest}: {len(images)} images, {spec.clusters} clusters")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_train_config(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tokens, _, pca, images = _load_token_data(Path(args.data), cfg)
    if tokens.shape[1] != cfg.T or tokens.shape[2] != cfg.d:
        raise BadSpec(
            f"data tokens are {tokens.shape[1:]} but config says (T={cfg.T}, d={cfg.d})"
        )
    stages = [1, 2, 3] if args.stage == "all" else [int(args.stage)]
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
        if images is None or pca is None:
            raise StscqError("stage 3 needs an image corpus (manifest), not raw tokens")
        pool = load_pool(p2)
        refit = stage3(images, pool, pca, cfg, report=report)
        save_pca(refit, out / "pca_stage3.pca")
    if pca is not None:
        save_pca(pca, out / "pca.pca")
    (out / "report.json").write_text(report.to_json() + "\n")
    print(f"artifacts written to {out}")
    return EXIT_OK


def cmd_encode(args) -> int:
    pool = load_pool(args.pool)
    router = load_router(args.router) if args.router else None
    if args.image:
        pca = load_pca(args.pca)
        img = read_pnm(args.image)
        tokens = pca_encode(img, pca).values
        width, height, channels = img.width, img.height, img.channels
    else:
        tokens = np.load(args.tokens)
        width, height, channels = args.width, args.height, 1
    q = quantize_routed(tokens, pool, policy=args.policy, router=router)
    header = bitstream.StreamHeader(
        M=pool.M, K=pool.K, T=pool.T, width=width, height=height, channels=channels
    )
    stream = bitstream.serialize(q, header)
    Path(args.out).write_bytes(stream)
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
        from .latent import decode as pca_decode

        pca = load_pca(args.pca)
        p = pca.patch_size
        if header.channels != pca.channels:
            raise HeaderMismatch(f"stream has {header.channels} channels, {args.pca} has {pca.channels}")
        if header.width % p or header.height % p or token_count(header.width, header.height, p) != pool.T:
            raise HeaderMismatch(f"a {header.width}x{header.height} image is not {pool.T} patches of {p}x{p}")
        img = pca_decode(tokens, pca, header.width, header.height)
        write_pnm(img, args.out)
        print(f"wrote {args.out}: {header.width}x{header.height} image")
    else:
        np.save(args.out, tokens)
        print(f"wrote {args.out}: {tokens.shape} token matrix")
    return EXIT_OK


def cmd_eval(args) -> int:
    pool = load_pool(args.pool)
    router = load_router(args.router) if args.router else None
    data_path = Path(args.data)
    if data_path.suffix == ".npz":
        tokens, labels, _, _ = synth.load_token_corpus(data_path)
        point = eval_rd_tokens(tokens, pool, policy=args.policy, router=router)
        hists = routing_histogram(tokens, pool, policy=args.policy, router=router, labels=labels)
    else:
        images, labels, _ = synth.load_image_corpus(data_path)
        pca = load_pca(args.pca)
        point = eval_rd(images, pca, pool, policy=args.policy, router=router)
        token_list = [pca_encode(img, pca).values for img in images]
        hists = routing_histogram(token_list, pool, policy=args.policy, router=router, labels=labels)
    write_rd_csv([point], args.out)
    write_gnuplot_script(args.out, str(args.out) + ".gp")
    write_histogram_json(hists, str(args.out) + ".hist.json")
    print(f"bpp={point.bpp:.6f} latent_mse={point.latent_mse:.6g}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_train_config(args)
    tokens, _, _, _ = _load_token_data(Path(args.data), cfg)
    points = []
    for M in [int(x) for x in args.m_values.split(",")]:
        from dataclasses import replace

        mcfg = replace(cfg, M=M)
        report = TrainReport()
        pool, router = stage1(tokens, mcfg, report=report)
        pool, router = stage2(tokens, pool, router, mcfg, report=report)
        for policy in ("nn", "cr"):
            points.append(
                eval_rd_tokens(tokens, pool, policy=policy, router=router, seed=mcfg.seed)
            )
    write_rd_csv(points, args.out)
    write_gnuplot_script(args.out, str(args.out) + ".gp")
    print(f"wrote {args.out}: {len(points)} rate-distortion points")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stscq", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="generate a synthetic corpus")
    ps.add_argument("--kind", choices=["tokens", "images"], default="tokens")
    ps.add_argument("--out", required=True)
    ps.add_argument("--clusters", type=int, default=8)
    ps.add_argument("--tokens", type=int, default=16, help="tokens per matrix")
    ps.add_argument("--dim", type=int, default=8)
    ps.add_argument("--samples", type=int, default=512)
    ps.add_argument("--separation", type=float, default=5.0)
    ps.add_argument("--sigma", type=float, default=0.5)
    ps.add_argument("--width", type=int, default=32)
    ps.add_argument("--height", type=int, default=32)
    ps.add_argument("--channels", type=int, default=1)
    ps.add_argument("--patch-size", type=int, default=8)
    ps.add_argument("--seed", type=int, default=None)
    ps.set_defaults(func=cmd_synth)

    pt = sub.add_parser("train", help="run the three-stage training pipeline")
    pt.add_argument("--data", required=True, help="token .npz or image manifest.json")
    pt.add_argument("--out-dir", required=True)
    pt.add_argument("--config", help="JSON file with TrainConfig fields")
    pt.add_argument("--stage", choices=["1", "2", "3", "all"], default="all")
    for f in fields(TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        pt.add_argument(flag, dest=f.name, type=type(f.default), default=None)
    pt.set_defaults(func=cmd_train)

    pe = sub.add_parser("encode", help="encode an image or token file to a stream")
    src = pe.add_mutually_exclusive_group(required=True)
    src.add_argument("--image")
    src.add_argument("--tokens")
    pe.add_argument("--pca")
    pe.add_argument("--pool", required=True)
    pe.add_argument("--router")
    pe.add_argument("--policy", choices=["nn", "cr"], default="nn")
    pe.add_argument("--width", type=int, default=256)
    pe.add_argument("--height", type=int, default=256)
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
    pv.add_argument("--data", required=True)
    pv.add_argument("--pool", required=True)
    pv.add_argument("--pca")
    pv.add_argument("--router")
    pv.add_argument("--policy", choices=["nn", "cr"], default="nn")
    pv.add_argument("--out", required=True)
    pv.set_defaults(func=cmd_eval)

    pw = sub.add_parser("sweep", help="train and evaluate across group counts")
    pw.add_argument("--data", required=True)
    pw.add_argument("--config")
    pw.add_argument("--m-values", default="1,2,4,8,16")
    pw.add_argument("--out", required=True)
    for f in fields(TrainConfig):
        flag = "--" + f.name.replace("_", "-")
        pw.add_argument(flag, dest=f.name, type=type(f.default), default=None)
    pw.set_defaults(func=cmd_sweep)

    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (BadSpec, json.JSONDecodeError, ValueError) as e:
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
