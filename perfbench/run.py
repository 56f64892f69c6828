"""finkey benchmark: run one workload and print its metrics as JSON.

Run from the repository root:

    python3 perfbench/run.py --workload train-match --seed 1 --seconds 12 --trace 0

Workloads: train-match, train-span-full, pipeline-coarse-batch,
pipeline-fine-online (see perfbench/README.md).  The inputs are made from
``--seed`` and written as corpus files before any timing starts.  With
``--trace 0`` the last line holds the end-to-end metrics, with ``--trace 1``
the per-layer metrics of a traced run; ``correct`` is false when an output
check failed.  The exit code is 0 whenever a result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORKLOADS = ("train-match", "train-span-full", "pipeline-coarse-batch", "pipeline-fine-online")
# One BLAS thread: steadier on a shared machine, and no more than nproc.
BLAS_THREADS = "1"
SETUPS = 3  # set-up is timed this many times, in fresh processes
DEADLINE_S = 170.0
END_TO_END = {
    "setup_s": "s", "train_examples_per_s": "1/s", "docs_per_s": "1/s",
    "latency_ms_p50": "ms", "latency_ms_p99": "ms", "peak_rss_mb": "MB",
}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _run_worker(args, workdir: Path, deadline: float, setup_only: bool):
    """Start one worker; return (setup seconds, its JSON result or None)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--workdir", str(workdir), "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT)
    try:
        if not select.select([proc.stdout], [], [], max(1.0, deadline - time.monotonic()))[0]:
            raise RuntimeError("worker set-up timed out")
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if first.strip() != "READY":
            raise RuntimeError(f"worker set-up failed: {first.strip()!r}")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    if setup_only:
        return setup_s, None
    lines = rest.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed no result")
    return setup_s, json.loads(lines[-1])


def _write_inputs(workload: str, seed: int, workdir: Path) -> None:
    from finkey.corpus import save_corpus
    from inputs import workload_corpora

    for name, (docs, _) in workload_corpora(workload, seed).items():
        save_corpus(docs, workdir / f"{name}.jsonl")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "finkey" / "__init__.py").is_file():
        print(f"perfbench: no finkey sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    sys.path[:0] = [str(SRC), str(HERE)]

    out_dir = HERE / "out"
    workdir = out_dir / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _write_inputs(args.workload, args.seed, workdir)
        setups = []
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(_run_worker(args, workdir, deadline, setup_only=True)[0])
        setup_s, result = _run_worker(args, workdir, deadline, setup_only=False)
        setups.append(setup_s)
        if args.trace:
            shutil.copy(workdir / "spans.json", out_dir / f"spans-{args.workload}-{args.seed}.json")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in result["problems"][:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = {name: {"value": v, "unit": _layer_unit(name)} for name, v in result["metrics"].items()}
    else:
        values = dict(result["metrics"], setup_s=statistics.median(setups),
                      peak_rss_mb=result["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(f"perfbench: workload={args.workload} seed={args.seed} calls={result['calls']} "
          f"blas_threads={BLAS_THREADS} setups_s={[round(s, 4) for s in setups]} "
          f"call_s={result['call_s']}")
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("fraction"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
