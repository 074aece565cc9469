"""Which library functions a traced run wraps, and the per-layer metrics built from them.

A traced run has phases: `setup` (program set-up), `main` (the timed loop),
`cli` (one `stscq encode` plus one `stscq decode`), and on the paper
workloads `aux` (one acceptance-scale training job, so the training layers
are measured too). Each metric comes from the first phase, in that order,
that called its function; spans recorded while checking outputs are ignored.
"""

from __future__ import annotations

import numpy as np

PHASES = ("setup", "main", "cli", "aux")

# (metric, unit, span, statistic). "ms"/"s": median inclusive time per call;
# "self_*": median time excluding wrapped callees; "calls": calls per operation
# of the phase; "self_ms_per_step": summed self time over training steps.
TIMED = [
    ("latent.read_pnm.ms", "ms", "latent.read_pnm", "ms"),
    ("latent.encode.ms", "ms", "latent.encode", "ms"),
    ("latent.decode.ms", "ms", "latent.decode", "ms"),
    ("latent.write_pnm.ms", "ms", "latent.write_pnm", "ms"),
    ("latent.fit_pca.s", "s", "latent.fit_pca", "s"),
    ("latent.load_pca.ms", "ms", "latent.load_pca", "ms"),
    ("codebook.load_pool.s", "s", "codebook.load_pool", "s"),
    ("codebook.init_kmeanspp.ms", "ms", "codebook.init_kmeanspp", "ms"),
    ("quantizer.quantize_routed.ms", "ms", "quantizer.quantize_routed", "ms"),
    ("quantizer.group_errors.ms", "ms", "quantizer.group_errors", "ms"),
    ("quantizer.group_errors.calls", "calls/op", "quantizer.group_errors", "calls"),
    ("quantizer.quantize_group.ms", "ms", "quantizer.quantize_group", "ms"),
    ("quantizer.dequantize.ms", "ms", "quantizer.dequantize", "ms"),
    ("router.route_naive.ms", "ms", "router.route_naive", "ms"),
    ("router.router_probs.ms", "ms", "router.router_probs", "ms"),
    ("router.router_loss_and_grads.ms", "ms", "router.router_loss_and_grads", "ms"),
    ("trainer.stage1.self_ms_per_step", "ms", "trainer.stage1", "self_ms_per_step"),
    ("trainer.stage2.self_ms_per_step", "ms", "trainer.stage2", "self_ms_per_step"),
    ("trainer.stage3.self_s", "s", "trainer.stage3", "self_s"),
    ("trainer.init_stage1_pool.s", "s", "trainer.init_stage1_pool", "s"),
    ("bitstream.serialize.ms", "ms", "bitstream.serialize", "ms"),
    ("bitstream.deserialize.ms", "ms", "bitstream.deserialize", "ms"),
    ("metrics.eval_rd.self_ms", "ms", "metrics.eval_rd", "self_ms"),
    ("cli.encode.s", "s", "cli.encode", "s"),
    ("cli.decode.s", "s", "cli.decode", "s"),
]

# computed from the geometry or read off the produced files, not timed
COUNTED = [
    ("codebook.pool_file_bytes", "bytes"),
    ("quantizer.bytes_scanned_per_img", "bytes"),
    ("quantizer.distance_evals_per_img", "count"),
    ("bitstream.stream_bytes", "bytes"),
]

OVERHEAD = ("trace.overhead_ms_per_op", "ms")

# the stscq functions to wrap, as "<module>.<function>"; cli.* spans are the benchmark's own
SITES = sorted({site for _, _, site, _ in TIMED if not site.startswith("cli.")})


def layer_metrics(spans: dict, ops: dict[str, int], steps: dict[str, int], counts: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from `Tracer.summary()`; returns (metrics, notes)."""
    out, notes = {}, []
    for name, unit, site, stat in TIMED:
        phase = next((p for p in PHASES if (site, p) in spans), None)
        if phase is None:
            notes.append(f"{name}: {site} was never called")
            continue
        durs, selfs = spans[site, phase]
        value = {
            "ms": np.median(durs) * 1e3,
            "s": np.median(durs),
            "self_ms": np.median(selfs) * 1e3,
            "self_s": np.median(selfs),
            "calls": len(durs) / ops[phase],
            "self_ms_per_step": sum(selfs) / (len(selfs) * steps.get(site, 1)) * 1e3,
        }[stat]
        out[name] = {"value": float(value), "unit": unit}
        notes.append(f"{name}: {len(durs)} calls in phase {phase}")
    for name, unit in COUNTED:
        out[name] = {"value": counts[name], "unit": unit}
    return out, notes
