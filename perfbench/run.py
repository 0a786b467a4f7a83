"""The genus0 benchmark: cold-process workloads, end-to-end and per-layer metrics.

Run from the root of a genus0 checkout:

    python3 perfbench/run.py --workload tensor_square --seed 1 --seconds 20 --trace 0

Every sample is a fresh interpreter, so the module-level memos start empty
as they do for a command-line user.  The harness strips GENUS0_CACHE_DIR
from the children's environment (the disk cache stays off), checks every
answer outside the timed region, and prints a readable report followed by
one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 runs a few import-only probes for set-up time, then starts
workload samples until --seconds have passed (so a run measures whole
samples, at least one), and reports medians of the end-to-end metrics.
--trace 1 runs one untraced and one traced sample of the same seed and
reports the traced sample's per-layer spans; the difference of their wall
times is trace_overhead_s.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
}
SETUP_PROBES = 4
RUN_LIMIT_S = 170.0  # a run must end within 180 s


class Harness:
    def __init__(self, workload: str, seed: int, size: str):
        self.workload = workload
        self.seed = seed
        self.size = size
        self.env = {k: v for k, v in os.environ.items() if k != "GENUS0_CACHE_DIR"}
        self.deadline = time.monotonic() + RUN_LIMIT_S

    def spawn(self, **spec) -> tuple[dict | None, str | None, float]:
        """One child process: (its result line, an error, seconds it lived)."""
        t0 = time.monotonic()
        spec.update(root=ROOT, spawned=t0)
        proc = subprocess.Popen(
            [sys.executable, CHILD, json.dumps(spec)],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=self.env,
            cwd=ROOT,
            text=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, "timed out", time.monotonic() - t0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        lived = time.monotonic() - t0
        if proc.returncode != 0:
            tail = err.strip().splitlines()[-1:] or [""]
            return None, f"exit status {proc.returncode}: {tail[0]}", lived
        try:
            return json.loads(out.strip().splitlines()[-1]), None, lived
        except (ValueError, IndexError):
            return None, "no result line", lived

    def sample(self, trace: bool) -> tuple[dict | None, str | None, float]:
        """One workload sample, its answer checked outside the timed region."""
        got, err, lived = self.spawn(
            workload=self.workload, size=self.size, seed=self.seed, trace=trace
        )
        if got is not None:
            err = workloads.check(self.workload, self.size, got["answer"])
        return got, err, lived


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _line(label: str, got: dict | None, err: str | None) -> str:
    if got is None:
        return f"{label}: FAILED ({err})"
    nums = " ".join(
        f"{k}={got[k]:.4f}" for k in ("wall_s", "setup_s", "cpu_s", "peak_rss_mb")
    )
    return f"{label}: {nums} " + ("ok" if err is None else f"WRONG ({err})")


def measure(h: Harness, seconds: float) -> tuple[int, int, dict, list[str]]:
    setups: list[float] = []
    for _ in range(SETUP_PROBES):
        got, err, _ = h.spawn(probe=True)
        if got is None:
            raise SystemExit(f"perfbench: set-up probe failed: {err}")
        setups.append(got["setup_s"])
    samples, lines, failed = [], [], 0
    start = time.monotonic()
    while True:
        got, err, lived = h.sample(trace=False)
        lines.append(_line(f"sample {len(lines) + 1}", got, err))
        failed += err is not None
        if got is not None:
            samples.append(got)
            setups.append(got["setup_s"])
        now = time.monotonic()
        if err == "timed out" or now >= start + seconds or now + lived > h.deadline:
            break
    attempted = len(lines)
    metrics = {
        "wall_s": _median([s["wall_s"] for s in samples]),
        "setup_s": _median(setups),
        "cpu_s": _median([s["cpu_s"] for s in samples]),
        "peak_rss_mb": _median([s["peak_rss_mb"] for s in samples]),
        "success_rate": (attempted - failed) / attempted,
    }
    lines.append(f"error_rate: {failed / attempted} ({failed} of {attempted} failed)")
    return attempted, failed, metrics, lines


def measure_traced(h: Harness) -> tuple[int, int, dict, list[str]]:
    plain, err_plain, _ = h.sample(trace=False)
    traced, err_traced, _ = h.sample(trace=True)
    lines = [
        _line("untraced", plain, err_plain),
        _line("traced", traced, err_traced),
    ]
    failed = (err_plain is not None) + (err_traced is not None)
    if plain is not None and traced is not None and plain["answer"] != traced["answer"]:
        lines.append("traced and untraced answers differ")
        failed = max(failed, 1)
    metrics = spans.layer_metrics(traced["spans"] if traced else {})
    if metrics["cache.load.hits"]:
        lines.append("the disk cache was read although it is off")
        failed = max(failed, 1)
    metrics["trace_overhead_s"] = (
        traced["wall_s"] - plain["wall_s"] if plain and traced else 0.0
    )
    ranked = sorted(
        (k for k in metrics if k.endswith(".self_s")), key=lambda k: -metrics[k]
    )
    lines += [f"  {k:36s} {metrics[k]:10.4f} s" for k in ranked if metrics[k]]
    return 2, failed, metrics, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--size", choices=tuple(workloads.SIZES), default="full",
        help="input size; tiny is for the harness's own smoke test",
    )
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "genus0", "__init__.py")):
        print(f"perfbench: no genus0 sources under {ROOT}/src", file=sys.stderr)
        return 2

    h = Harness(args.workload, args.seed, args.size)
    load = os.getloadavg()
    info, err, _ = h.spawn(probe=True)  # also compiles the bytecode, untimed
    if info is None:
        print(f"perfbench: genus0 does not import: {err}", file=sys.stderr)
        return 2
    print(
        f"perfbench {args.workload} seed={args.seed} size={args.size} "
        f"trace={args.trace}"
    )
    print(
        f"machine: nproc={os.cpu_count()} python={info['python']} "
        f"numpy={info['numpy']} openblas={info['openblas']!r} "
        f"blas_threads={info['blas_threads']} "
        f"loadavg={','.join(f'{x:.2f}' for x in load)}"
    )
    if args.trace:
        attempted, failed, values, lines = measure_traced(h)
        units = {k: spans.unit(k) for k in values}
    else:
        attempted, failed, values, lines = measure(h, args.seconds)
        units = END_TO_END
    print("\n".join(lines))
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
