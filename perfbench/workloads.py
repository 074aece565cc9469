"""The three workloads: program set-up, one closed-loop operation, output checks.

Every library call goes through a module attribute (`latent.read_pnm`, not a
name imported once), so a traced run sees the wrapped functions.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import phase
from stscq import bitstream, cli, codebook, latent, metrics, quantizer, router, synth, trainer

# Geometry per input kind and scale. "paper" is what the benchmark measures;
# "toy" keeps every code path but runs in about a second (smoke test).
GEOMETRY = {
    "paper": {
        "paper": {"size": 256, "patch": 16, "d": 8, "M": 16, "K": 1024, "images": 32, "streams": 256, "noise": 0.1},
        "toy": {"size": 64, "patch": 16, "d": 8, "M": 4, "K": 64, "images": 8, "streams": 16, "noise": 0.1},
    },
    # the acceptance configuration; stage 1 must outlast the 100-step router warm-up
    "train": {
        "paper": {"size": 32, "patch": 8, "d": 8, "M": 8, "K": 16, "images": 512, "steps1": 200, "steps2": 300},
        "toy": {"size": 32, "patch": 8, "d": 8, "M": 8, "K": 16, "images": 64, "steps1": 110, "steps2": 20},
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def pool_array(path: Path, shape: tuple[int, ...]) -> np.memmap:
    """The pool file's code array, read straight from its bytes (it ends the file)."""
    nbytes = math.prod(shape) * 8
    return np.memmap(path, dtype="<f8", mode="r", offset=os.path.getsize(path) - nbytes, shape=shape)


def brute_force_nn(pool_path: Path, shape: tuple[int, ...], tokens: np.ndarray) -> tuple[int, np.ndarray]:
    """Exhaustive group-then-code search; ties go to the lowest group and code index."""
    best = None
    for m in range(shape[0]):
        mm = pool_array(pool_path, shape)
        codes = np.array(mm[m])  # copy one group, then drop the mapping
        del mm
        dist = ((codes - tokens[:, None, :]) ** 2).sum(axis=2)  # (T, K)
        err = dist.min(axis=1).sum()
        if best is None or err < best[0]:
            best = (err, m, dist.argmin(axis=1))
    return best[1], best[2]


def encode_image(image: Path, pool, pca, out: Path):
    img = latent.read_pnm(image)
    tokens = latent.encode(img, pca)
    q = quantizer.quantize_routed(tokens.values, pool, policy="nn")
    header = bitstream.StreamHeader(M=pool.M, K=pool.K, T=pool.T, width=img.width,
                                    height=img.height, channels=img.channels)
    stream = bitstream.serialize(q, header)
    out.write_bytes(stream)
    return q, stream


def decode_stream(stream: Path, pool, pca, out: Path):
    raw = stream.read_bytes()
    header, _ = bitstream.StreamHeader.unpack(raw)
    q = bitstream.deserialize(raw, pool)
    z = quantizer.dequantize(q, pool)
    latent.write_pnm(latent.decode(z, pca, header.width, header.height), out)
    return q, z


def same_quantized(a, b) -> bool:
    return a.group_index == b.group_index and np.array_equal(a.indices, b.indices)


class Workload:
    kind = ""  # input generator in inputs.py
    tail_pct = None  # highest percentile with >= 10 samples beyond it at the default run length

    def __init__(self, inputs: Path, work: Path, g: dict, seed: int):
        self.inputs, self.work, self.g, self.seed = inputs, work, g, seed
        self.digests: dict[int, str] = {}
        self.counts: dict[str, float] = {}

    def stable(self, key: int, digest: str) -> list[str]:
        first = self.digests.setdefault(key, digest)
        return [] if first == digest else [f"output of input {key} changed between repeats"]

    def final_checks(self) -> tuple[int, list[str]]:
        """Run-level checks after the loop: (checks attempted, problems)."""
        return 0, []

    def run_digest(self) -> str:
        return sha256("".join(f"{k}:{v};" for k, v in sorted(self.digests.items())).encode())

    def cli_round_trip(self, tracer) -> list[str]:
        """One `stscq encode` and one `stscq decode`, compared with the library pipeline."""
        image, enc_pca, pool_path, dec_pca, pool, pca, pca_dec = self.cli_inputs()
        stream, recon = self.work / "cli.stscq", self.work / "cli.pgm"
        problems = []
        for cmd, argv in (
            ("encode", ["encode", "--image", image, "--pca", enc_pca, "--pool", pool_path, "--out", stream]),
            ("decode", ["decode", "--stream", stream, "--pool", pool_path, "--pca", dec_pca, "--out", recon]),
        ):
            with tracer.span(f"cli.{cmd}"), redirect_stdout(io.StringIO()):
                code = cli.main([str(a) for a in argv])
            if code != 0:
                return [f"stscq {cmd} exited with {code}"]
        with phase(tracer, "check"):
            _, ref = encode_image(image, pool, pca, self.work / "ref.stscq")
            decode_stream(self.work / "ref.stscq", pool, pca_dec, self.work / "ref.pgm")
        if stream.read_bytes() != ref:
            problems.append("stscq encode output differs from the library pipeline")
        if recon.read_bytes() != (self.work / "ref.pgm").read_bytes():
            problems.append("stscq decode output differs from the library pipeline")
        self.counts.setdefault("bitstream.stream_bytes", len(ref))
        return problems


class PaperWorkload(Workload):
    kind = "paper"

    def __init__(self, *args):
        super().__init__(*args)
        g = self.g
        self.images = sorted((self.inputs / "images").glob("*.pgm"))
        self.pool_path, self.pca_path = self.inputs / "pool.pool", self.inputs / "pca.pca"
        self.shape = (g["M"], (g["size"] // g["patch"]) ** 2, g["K"], g["d"])
        self.pool = self.pca = None
        M, T, K, d = self.shape
        self.counts.update({
            "quantizer.bytes_scanned_per_img": M * T * K * d * 8,
            "quantizer.distance_evals_per_img": M * T * K,
            "codebook.pool_file_bytes": os.path.getsize(self.pool_path),
        })

    def setup(self) -> None:
        self.pool = self.pca = None  # release the previous copy before loading again
        self.pool = codebook.load_pool(self.pool_path)
        self.pca = latent.load_pca(self.pca_path)

    def cli_inputs(self):
        return (self.images[0], self.pca_path, self.pool_path, self.pca_path, self.pool, self.pca, self.pca)

    def final_checks(self) -> tuple[int, list[str]]:
        payload = math.prod(self.shape) * 8
        extra = self.counts["codebook.pool_file_bytes"] - payload
        ok = 0 <= extra <= 64
        return 1, [] if ok else [f"pool file is {extra} bytes off its computed {payload}-byte payload"]

    def _timing(self, times: list[float], prefix: str) -> dict:
        ms = np.array(times) * 1e3
        return {
            f"{prefix}_img_per_s": (len(times) / sum(times), "img/s"),
            f"{prefix}_ms_p50": (float(np.median(ms)), "ms"),
            f"{prefix}_ms_tail": (float(np.percentile(ms, self.tail_pct)), "ms"),
        }


class EncodePaper(PaperWorkload):
    tail_pct = 85.0

    def __init__(self, *args):
        super().__init__(*args)
        self.encoded: dict[int, object] = {}

    def op(self, i: int):
        key = i % len(self.images)
        return encode_image(self.images[key], self.pool, self.pca, self.work / f"e{key}.stscq")

    def check(self, i: int, out, corrupt: bool = False) -> list[str]:
        key = i % len(self.images)
        q, stream = out
        if corrupt:
            stream = stream[:-2] + bytes([stream[-2] ^ 0x10]) + stream[-1:]
        problems = []
        if not same_quantized(bitstream.deserialize(stream, self.pool), q):
            problems.append(f"stream of image {key} does not deserialize to the encoded indices")
        self.encoded.setdefault(key, q)
        self.counts["bitstream.stream_bytes"] = len(stream)
        return problems + self.stable(key, sha256(stream))

    def final_checks(self) -> tuple[int, list[str]]:
        attempted, problems = super().final_checks()
        rng = np.random.default_rng(self.seed + 1)
        done = sorted(self.encoded)
        for key in rng.choice(done, size=min(2, len(done)), replace=False):
            tokens = latent.encode(latent.read_pnm(self.images[key]), self.pca).values
            group, indices = brute_force_nn(self.pool_path, self.shape, tokens)
            q = self.encoded[key]
            if q.group_index != group or not np.array_equal(q.indices, indices):
                problems.append(f"image {key} differs from the brute-force nearest neighbour")
            attempted += 1
        return attempted, problems

    def named(self, times: list[float]) -> dict:
        return self._timing(times, "encode")


class DecodePaper(PaperWorkload):
    tail_pct = 99.5

    def __init__(self, *args):
        super().__init__(*args)
        self.streams = sorted((self.inputs / "streams").glob("*.stscq"))
        with np.load(self.inputs / "streams.npz") as z:
            self.groups, self.indices = z["groups"], z["indices"]

    def op(self, i: int):
        key = i % len(self.streams)
        return decode_stream(self.streams[key], self.pool, self.pca, self.work / f"d{key}.pgm")

    def check(self, i: int, out, corrupt: bool = False) -> list[str]:
        key = i % len(self.streams)
        q, z = out
        if corrupt:
            z = z + 1.0
        problems = []
        if q.group_index != self.groups[key] or not np.array_equal(q.indices, self.indices[key]):
            problems.append(f"stream {key} does not deserialize to the indices it was made from")
        mm = pool_array(self.pool_path, self.shape)
        expect = np.array(mm[self.groups[key], np.arange(self.shape[1]), self.indices[key]])
        del mm
        if not np.array_equal(z, expect):
            problems.append(f"stream {key} dequantizes to other codes than the pool file holds")
        self.counts["bitstream.stream_bytes"] = os.path.getsize(self.streams[key])
        return problems + self.stable(key, sha256((self.work / f"d{key}.pgm").read_bytes()))

    def named(self, times: list[float]) -> dict:
        return self._timing(times, "decode")


class TrainAccept(Workload):
    kind = "train"

    def __init__(self, *args):
        super().__init__(*args)
        g = self.g
        self.cfg = trainer.TrainConfig(
            M=g["M"], K=g["K"], T=(g["size"] // g["patch"]) ** 2, d=g["d"], seed=self.seed,
            steps_stage1=g["steps1"], steps_stage2=g["steps2"],
            learning_rate=0.05, batch_size=32, lam1=1.0,
        )
        self.stage_times: list[tuple[float, float, float, float]] = []
        self.psnr = None
        self.last = None
        cfg = self.cfg
        self.counts.update({
            "quantizer.bytes_scanned_per_img": cfg.M * cfg.T * cfg.K * cfg.d * 8,
            "quantizer.distance_evals_per_img": cfg.M * cfg.T * cfg.K,
            "trainer.steps_per_job": cfg.steps_stage1 + cfg.steps_stage2,
        })

    def setup(self) -> None:
        images, _, spec = synth.load_image_corpus(self.inputs / "images" / "manifest.json")
        self.images = images
        self.pca = latent.fit_pca(images, spec.patch_size, self.cfg.d, seed=self.cfg.seed)
        self.tokens = np.stack([latent.encode(img, self.pca).values for img in images])

    def op(self, i: int):
        t0 = perf_counter()
        pool1, router1 = trainer.stage1(self.tokens, self.cfg)
        t1 = perf_counter()
        pool, rtr = trainer.stage2(self.tokens, pool1, router1, self.cfg)
        t2 = perf_counter()
        pca = trainer.stage3(self.images, pool, self.pca, self.cfg)
        t3 = perf_counter()
        point = metrics.eval_rd(self.images, pca, pool)
        t4 = perf_counter()
        self.stage_times.append((t1 - t0, t2 - t1, t3 - t2, t4 - t3))
        return pool, rtr, pca, point.psnr

    def check(self, i: int, out, corrupt: bool = False) -> list[str]:
        pool, rtr, pca, psnr = out
        files = {"pool": self.work / "pool.pool", "router": self.work / "router.rtr", "pca": self.work / "pca3.pca"}
        codebook.save_pool(pool, files["pool"])
        router.save_router(rtr, files["router"])
        latent.save_pca(pca, files["pca"])
        if corrupt:
            raw = bytearray(files["pool"].read_bytes())
            raw[-1] ^= 0x01
            files["pool"].write_bytes(bytes(raw))
        problems = []
        back = codebook.load_pool(files["pool"])
        if not all(np.array_equal(a.codes_array(), b.codes_array()) for a, b in zip(pool.groups, back.groups)):
            problems.append("saved pool does not load back to the trained codes")
        r = router.load_router(files["router"])
        if not all(np.array_equal(getattr(r, k), getattr(rtr, k)) for k in ("W1", "b1", "W2", "b2")):
            problems.append("saved router does not load back to the trained weights")
        p = latent.load_pca(files["pca"])
        if not all(np.array_equal(getattr(p, k), getattr(pca, k)) for k in ("mean", "basis", "decoder", "decoder_mean")):
            problems.append("saved stage-3 PCA does not load back to the refit map")
        if not pool.frozen or not math.isfinite(psnr):
            problems.append(f"stage-2 pool frozen={pool.frozen}, eval PSNR {psnr}")
        blob = b"".join(f.read_bytes() for f in files.values()) + repr(psnr).encode()
        if self.psnr is None:
            self.psnr = psnr
        self.last = out
        self.counts["codebook.pool_file_bytes"] = os.path.getsize(files["pool"])
        return problems + self.stable(0, sha256(blob))

    def cli_inputs(self):
        pool, _, pca3, _ = self.last
        latent.save_pca(self.pca, self.work / "pca.pca")
        image = self.inputs / "images" / "img_00000.pgm"
        return (image, self.work / "pca.pca", self.work / "pool.pool", self.work / "pca3.pca",
                pool, self.pca, pca3)

    def named(self, times: list[float]) -> dict:
        s1, s2, s3, ev = (float(np.median(col)) for col in zip(*self.stage_times))
        return {
            "stage1_ms_per_step": (s1 / self.cfg.steps_stage1 * 1e3, "ms"),
            "stage2_ms_per_step": (s2 / self.cfg.steps_stage2 * 1e3, "ms"),
            "stage3_s": (s3, "s"),
            "eval_img_per_s": (len(self.images) / ev, "img/s"),
            "eval_psnr_db": (self.psnr, "dB"),
        }


WORKLOADS = {"encode-paper": EncodePaper, "decode-paper": DecodePaper, "train-accept": TrainAccept}
