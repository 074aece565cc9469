"""Smoke test of the benchmark at toy geometry; about half a minute.

    python3 -m pytest perfbench/test_smoke.py     (or: python3 perfbench/test_smoke.py)

Every workload runs untraced, traced, and with a deliberately corrupted
output. The untraced run must print each workload-named metric with its
unit, both runs must emit exactly the metrics BENCHMARK.json lists, the
traced run must reproduce the untraced outputs, and the corruption must be
caught.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAMED = {
    "encode-paper": {"encode_img_per_s": "img/s", "encode_ms_p50": "ms", "encode_ms_tail": "ms"},
    "decode-paper": {"decode_img_per_s": "img/s", "decode_ms_p50": "ms", "decode_ms_tail": "ms"},
    "train-accept": {"stage1_ms_per_step": "ms", "stage2_ms_per_step": "ms", "stage3_s": "s",
                     "eval_img_per_s": "img/s", "eval_psnr_db": "dB"},
}
COMMON = {"setup_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}


def bench(workload: str, trace: int, *extra: str) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--scale", "toy", *extra],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def units(result: dict) -> dict:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def digest(lines: list[str]) -> str:
    return next(line.split()[-1] for line in lines if line.startswith("# digest "))


def check_workload(workload: str) -> None:
    lines, result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    printed = {line.split()[1]: line.split()[-1] for line in lines if line.startswith("#   ")}
    for name, unit in {**NAMED[workload], **COMMON}.items():
        assert printed.get(name) == unit, f"{workload} does not print {name} in {unit}"

    traced_lines, traced = bench(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert digest(traced_lines) == digest(lines)

    _, faulty = bench(workload, 0, "--inject-fault")
    assert not faulty["correct"] and faulty["failed"] >= 1


def test_encode_paper():
    check_workload("encode-paper")


def test_decode_paper():
    check_workload("decode-paper")


def test_train_accept():
    check_workload("train-accept")


def test_missing_site_is_reported():
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    import stscq.latent  # noqa: F401
    from spans import Tracer

    tracer = Tracer()
    tracer.install(["latent.read_pnm", "latent.no_such_function"], "stscq")
    try:
        assert tracer.missing == ["latent.no_such_function"]
    finally:
        tracer.uninstall()


if __name__ == "__main__":
    for workload in NAMED:
        check_workload(workload)
    test_missing_site_is_reported()
    print("ok")
