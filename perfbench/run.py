"""Benchmark for the stscq codec and trainer.

    python3 perfbench/run.py --workload encode-paper --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload is a closed loop with one caller, run in this single process
after its inputs are generated from --seed in a child process. --trace 0
measures the end-to-end metrics; --trace 1 wraps the library's public
functions and reports per-layer metrics instead. Lines starting with `#`
are for people; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# pin BLAS before numpy is imported anywhere; children inherit it
BLAS_THREADS = len(os.sched_getaffinity(0))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = str(BLAS_THREADS)
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
sys.dont_write_bytecode = True

from spans import Tracer, phase  # noqa: E402

SETUP_REPEATS = 5  # set-up is timed this many times; the median is reported
# The bounded metrics. Throughput and tail times are printed per workload but
# not bounded: on a shared 2-CPU host their run-to-run spread (up to ~40% for
# the decode p99) exceeds any usable bound. One operation is an image on the
# paper workloads and a training job on train-accept.
END_TO_END = [("op_ms_p50", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def add(self, attempted: int, problems: list[str]) -> None:
        self.attempted += attempted
        self.failed += min(attempted, len(problems))
        self.problems += problems


def closed_loop(wl, tally: Tally, seconds: float | None = None, n_ops: int | None = None,
                corrupt_first: bool = False, tracer=None) -> list[float]:
    """Run operations back to back for `seconds` (at least one) or exactly `n_ops`."""
    times: list[float] = []
    deadline = perf_counter() + (seconds or 0.0)
    i = 0
    while i < n_ops if n_ops is not None else (i == 0 or perf_counter() < deadline):
        start = perf_counter()
        try:
            out = wl.op(i)
        except Exception as exc:  # a failed operation is counted, not fatal
            tally.add(1, [f"operation {i} raised {exc!r}"])
            i += 1
            continue
        times.append(perf_counter() - start)
        try:
            with phase(tracer, "check"):
                problems = wl.check(i, out, corrupt=corrupt_first and i == 0)
        except Exception as exc:
            problems = [f"checking operation {i} raised {exc!r}"]
        tally.add(1, problems)
        i += 1
    return times


def generate(kind: str, seed: int, out: Path, g: dict) -> None:
    subprocess.run([sys.executable, str(HERE / "inputs.py"), kind, str(seed), str(out), json.dumps(g)], check=True)


def machine_facts(pool_bytes: int) -> dict:
    import numpy as np

    cpu = next((line.split(":", 1)[1].strip() for line in Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    llc_level, llc_bytes = 0, 0
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        level = int((index / "level").read_text())
        size = (index / "size").read_text().strip()
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        if level >= llc_level:
            llc_level, llc_bytes = level, int(size.rstrip("KMG")) * scale
    ram_kb = next(int(line.split()[1]) for line in Path("/proc/meminfo").read_text().splitlines()
                  if line.startswith("MemTotal"))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "llc_bytes": llc_bytes, "ram_bytes": ram_kb * 1024,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "blas_threads": BLAS_THREADS,
        "pool_bytes_over_llc": round(pool_bytes / llc_bytes, 3) if llc_bytes else None,
    }


def run(args, work: Path) -> dict:
    import numpy as np

    from layers import OVERHEAD, SITES, layer_metrics
    from workloads import GEOMETRY, WORKLOADS, TrainAccept

    cls = WORKLOADS[args.workload]
    g = GEOMETRY[cls.kind][args.scale]
    generate(cls.kind, args.seed, work / "inputs", g)
    wl = cls(work / "inputs", work, g, args.seed)
    tally = Tally()
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace} scale {args.scale}")

    if not args.trace:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            wl.setup()
            setup_times.append(perf_counter() - start)
        times = closed_loop(wl, tally, seconds=args.seconds, corrupt_first=args.inject_fault)
        named = wl.named(times) if times else {}
        tally.add(*wl.final_checks())
        values = {
            "op_ms_p50": float(np.median(times)) * 1e3 if times else float("nan"),
            "setup_s": float(np.median(setup_times)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        result = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"# operations {len(times)}")
        if wl.tail_pct:
            beyond = int(len(times) * (1 - wl.tail_pct / 100))
            print(f"# tail is p{wl.tail_pct:g}, with {beyond} samples beyond it")
        named.update({
            "setup_s": (values["setup_s"], "s"),
            "peak_rss_mb": (values["peak_rss_mb"], "MB"),
            "failed_frac": (tally.failed / max(tally.attempted, 1), "ratio"),
        })
        for name, (value, unit) in named.items():
            print(f"#   {name:<20} {value:.6g} {unit}")
        print("#named " + json.dumps({k: v for k, (v, _) in named.items()}))
    else:
        tracer = Tracer()
        tracer.install(SITES, "stscq")
        wl.setup()
        tracer.uninstall()
        base = closed_loop(wl, tally, seconds=args.seconds / 2, corrupt_first=args.inject_fault)
        tracer.install(SITES, "stscq")
        with phase(tracer, "main"):
            traced = closed_loop(wl, tally, n_ops=len(base), tracer=tracer)
        with phase(tracer, "cli"):
            tally.add(1, wl.cli_round_trip(tracer))
        steps_g = GEOMETRY["train"][args.scale]
        if wl.kind == "paper":
            generate("train", args.seed, work / "aux" / "inputs", steps_g)
            aux = TrainAccept(work / "aux" / "inputs", work / "aux", steps_g, args.seed)
            with phase(tracer, "aux"):
                aux.setup()
                closed_loop(aux, tally, n_ops=1, tracer=tracer)
        with phase(tracer, "check"):
            tally.add(*wl.final_checks())
        tracer.uninstall()
        result, notes = layer_metrics(
            tracer.summary(),
            ops={"setup": 1, "main": len(traced), "cli": 1, "aux": 1},
            steps={"trainer.stage1": steps_g["steps1"], "trainer.stage2": steps_g["steps2"]},
            counts=wl.counts,
        )
        overhead = (np.mean(traced) - np.mean(base)) * 1e3 if base and traced else float("nan")
        result[OVERHEAD[0]] = {"value": float(overhead), "unit": OVERHEAD[1]}
        for note in notes:
            print(f"#   {note}")
        for name in tracer.missing:
            print(f"# missing: {name} no longer exists in stscq")
        print(f"# tracing overhead {overhead:.4g} ms per operation over {len(traced)} operations")

    print("# computed, not measured: " + json.dumps(wl.counts))
    print("# machine " + json.dumps(machine_facts(wl.counts.get("codebook.pool_file_bytes", 0))))
    print(f"# digest {wl.run_digest()}")
    for problem in tally.problems[:10]:
        print(f"# FAILED: {problem}")
    print(f"# checks: attempted {tally.attempted} failed {tally.failed}")
    return {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": result}


def run_all(args) -> int:
    """Each workload in its own process; prints the workload-named metrics side by side."""
    named, worst = {}, 0
    for workload in ("encode-paper", "decode-paper", "train-accept"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0", "--scale", args.scale]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        for line in proc.stdout.splitlines():
            if line.startswith("#named "):
                named[workload] = json.loads(line[len("#named "):])
    print("# all workloads")
    for workload, values in named.items():
        for name, value in values.items():
            print(f"#   {workload:<13} {name:<20} {value:.6g}")
    return worst


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["encode-paper", "decode-paper", "train-accept", "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["paper", "toy"], default="paper", help="toy: tiny geometry for the smoke test")
    p.add_argument("--inject-fault", action="store_true", help="corrupt the first output to exercise the checks")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "stscq" / "__init__.py").is_file():
        print(f"error: no stscq sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
