"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 20 --trace 0

Run from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
every end-to-end metric of ``BENCHMARK.json`` with ``--trace 0``, every
per-layer metric with ``--trace 1``.  The lines before it carry the host
and run block and the workload's own metric names; the full record
(with spans and the self-time table when traced) is written under
``perfbench/out/``.  Exits non-zero, printing no result, when the
program under ``src/`` is missing or a correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: BLAS threads for every run, at most the host's core count: one thread
#: is both load generator and serving worker, and single-threaded BLAS
#: kept the training step steadiest on a 2-core host.
BLAS_THREADS = 1

def pin_threads() -> int:
    """Pin BLAS to ``BLAS_THREADS`` and the process to one core.

    Must run before numpy is first imported, which is when BLAS reads
    its thread count.  Migrations between cores cost the run its warm
    caches: pinned, the serving capacity was about a quarter higher and
    its run-to-run spread halved on a 2-core host.  Returns the core.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _git_sha() -> str | None:
    """Commit of the checkout, or ``None`` outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def host_block(seed: int) -> dict:
    import platform

    import numpy as np

    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "cpu_count": os.cpu_count(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shops", type=int, default=1000,
                        help="world size (the benchmark uses 1000)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    cpu = pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench import common, layers, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; pick from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    out_dir = ROOT / "perfbench" / "out"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = out_dir / f"work-{tag}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    ctx = common.Context(seed=args.seed, seconds=args.seconds,
                         trace=bool(args.trace), work_dir=work_dir,
                         shops=args.shops)
    try:
        result = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    run = {**host_block(args.seed), "pinned_cpu": cpu,
           "workload": args.workload, "seconds": args.seconds,
           "shops": args.shops, **result.run}
    if args.trace:
        metrics = {name: {"value": value,
                          "unit": layers.layer_unit(name)}
                   for name, value in result.layers.items()}
    else:
        metrics = {name: {"value": result.end_to_end[name], "unit": unit}
                   for name, unit in layers.END_TO_END_UNITS.items()}
    record = {"run": run, "checks": result.checks, "named": result.named,
              "metrics": metrics}
    if args.trace:
        record["self_time"] = result.self_time
        spans_path = out_dir / f"{tag}-spans.jsonl"
        with open(spans_path, "w") as handle:
            for span in result.spans:
                handle.write(json.dumps(span) + "\n")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"run": run}))
    print(json.dumps({"checks": result.checks}))
    print(json.dumps({"named": result.named}))
    if not result.correct:
        print(f"perfbench: correctness check failed: {result.checks}",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": True, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
