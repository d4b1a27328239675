"""Benchmark of the ``coxbraid verify`` sweeps.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the parent of this directory and the
package is imported from its ``src/``.  Every pass runs in a fresh
interpreter (``child.py``), because ``coxeter_group``, ``garside_table``,
``kl_table``, ``dual_monoid`` and the TL tables are process-level caches.

``--trace 0`` first runs one uncounted set-up-only pass, which compiles
the bytecode of a fresh checkout and warms the file cache.  It then runs
set-up-only passes for ``SETUP_SHARE`` of ``--seconds`` (at least
``SETUP_MIN`` of them), then full sweep passes while the next one should
end within ``--seconds`` (at least ``SWEEP_MIN``).  Before the first pass
and after every pass it runs ``child.py --mode reference``, a fixed
pure-Python loop, to gauge how fast the host is at that moment.  It
reports the end-to-end metrics: ``sweep_s``, the wall time from the first
``run_check`` call to the last return; ``setup_s``, ``import coxbraid``
plus building each group and its element list; and ``peak_rss_mb``, the
peak resident memory of the sweeping interpreter.  ``sweep_s`` and
``setup_s`` are medians over the passes of each pass's time scaled to the
host speed of the reference loops around it (see ``measure``);
``peak_rss_mb`` is a plain median.  Why they are scaled is in README.md.

``--trace 1`` runs one untraced and one traced sweep pass and reports the
per-layer metrics of ``layertrace.METRICS`` from the traced pass, plus
``verify.cpu_s``, ``verify.items``, ``fail_ratio`` and ``trace_overhead``
(traced over untraced ``sweep_s``).  The two passes take about 3-9 s for
the workloads of ``BENCHMARK.json``, well within ``--seconds``.  A run
fails when a pass has not ended ``RUN_LIMIT_S`` after the run started.

Every pass's verdicts are checked against the workload's expected item
count and digest; a pass that differs, that has an item whose ``ok`` is
false, or whose sweep raised, counts all its items as failed.  The last
line of standard output is the result object; the line before it holds
the run's metadata, and the whole record is written to ``.perfbench/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "coxbraid"
OUT_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from layertrace import SAMPLE_EVERY  # noqa: E402
from workloads import ALL_WORKLOADS, Workload  # noqa: E402

SETUP_SHARE = 0.15
SETUP_MIN = 9
SWEEP_MIN = 4
# The reference loop's time that sweep_s and setup_s are scaled to.  It is
# about what ``child.py --mode reference`` takes on a 2-vCPU Xeon VM under
# Python 3.11.7 when the host is quiet, so that the scaled times read as
# seconds on that machine.
REFERENCE_S = 0.2
RUN_LIMIT_S = 170.0
# Environment variables removed before a pass.  COXBRAID_* change what the
# package does: the KL disk cache named by COXBRAID_KL_CACHE is read without
# validation and written by thm-8.2.  PYTHON* change how the interpreter
# runs, such as PYTHONDONTWRITEBYTECODE, which makes every import compile
# from source and so triples setup_s.  PYTHONHOME is kept, because the
# interpreter may need it to start.
SCRUB_PREFIXES = ("COXBRAID_", "PYTHON")
KEEP = frozenset({"PYTHONHOME"})


class PassFailed(RuntimeError):
    """A pass crashed, timed out or printed no result."""


def child_env(seed: int) -> tuple[dict[str, str], list[str]]:
    """The environment for a pass, and the names scrubbed from it.

    The hash seed follows the workload seed, so that set iteration order,
    and with it every count, repeats for a seed.
    """
    env = dict(os.environ)
    removed = sorted(k for k in env if k.startswith(SCRUB_PREFIXES) and k not in KEEP)
    for k in removed:
        del env[k]
    env["PYTHONHASHSEED"] = str(seed % 4294967296)
    return env, removed


def run_pass(workload: str, seed: int, mode: str, env: dict[str, str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise PassFailed(f"no time left for a {mode} pass")
    cmd = [sys.executable, str(HERE / "child.py"),
           "--workload", workload, "--seed", str(seed), "--mode", mode]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{mode} pass timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassFailed(f"{mode} pass exited with {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise PassFailed(f"{mode} pass printed nothing:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - started
    return result


def judge(workload: Workload, result: dict) -> tuple[int, int]:
    """``(attempted, failed)`` items of one sweep pass."""
    attempted = max(workload.items, result["items"])
    ok = (not result["raised"] and result["not_ok"] == 0
          and result["items"] == workload.items and result["digest"] == workload.digest)
    return attempted, 0 if ok else attempted


def metadata(args: argparse.Namespace, removed: list[str], env: dict[str, str]) -> dict:
    rev = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    src_lines = sum(len(p.read_text().splitlines()) for p in sorted(PACKAGE.glob("*.py")))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_rev": rev,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "src_coxbraid_lines": src_lines,
        "env": {
            "scrubbed": "COXBRAID_* and PYTHON* but PYTHONHOME",
            "removed": removed,
            "set": {"PYTHONHASHSEED": env["PYTHONHASHSEED"]},
        },
        "sample_every": SAMPLE_EVERY,
    }


def reference_s(args: argparse.Namespace, env: dict[str, str], deadline: float) -> float:
    """Seconds of one reference loop in a fresh interpreter."""
    return run_pass(args.workload, args.seed, "reference", env, deadline)["reference_s"]


def measure(args: argparse.Namespace, env: dict[str, str], deadline: float) -> tuple[dict, list]:
    """Untraced passes: the end-to-end metrics.

    The reference loop runs before the first pass and after every pass.
    Each pass's times are scaled by ``REFERENCE_S`` over the mean of the
    two reference times around it, which puts them in seconds of a host
    on which the loop takes ``REFERENCE_S``.  The record keeps the raw
    times, the reference times and the scale of every pass.
    """
    run_pass(args.workload, args.seed, "setup", env, deadline)
    started = time.monotonic()
    refs = [reference_s(args, env, deadline)]
    passes = []
    while len(passes) < SETUP_MIN or time.monotonic() - started < SETUP_SHARE * args.seconds:
        passes.append(run_pass(args.workload, args.seed, "setup", env, deadline))
        refs.append(reference_s(args, env, deadline))
    sweeps = []
    while True:
        sweeps.append(run_pass(args.workload, args.seed, "sweep", env, deadline))
        refs.append(reference_s(args, env, deadline))
        if (len(sweeps) >= SWEEP_MIN
                and time.monotonic() - started + sweeps[-1]["wall_s"] > args.seconds):
            break
    passes += sweeps
    for i, p in enumerate(passes):
        p["reference_s"] = (refs[i], refs[i + 1])
        p["host_scale"] = REFERENCE_S / ((refs[i] + refs[i + 1]) / 2)
    metrics = {
        "sweep_s": (statistics.median(p["sweep_s"] * p["host_scale"] for p in sweeps), "s"),
        "setup_s": (statistics.median(p["setup_s"] * p["host_scale"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in sweeps), "MB"),
    }
    return metrics, passes


def trace(args: argparse.Namespace, env: dict[str, str], deadline: float) -> tuple[dict, list]:
    """One untraced and one traced pass: the per-layer metrics."""
    plain = run_pass(args.workload, args.seed, "sweep", env, deadline)
    traced = run_pass(args.workload, args.seed, "trace", env, deadline)
    metrics = {name: (m["value"], m["unit"]) for name, m in traced["trace"]["metrics"].items()}
    metrics["verify.cpu_s"] = (plain["cpu_s"], "s")
    metrics["trace_overhead"] = (traced["sweep_s"] / plain["sweep_s"], "ratio")
    return metrics, [plain, traced]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="coxbraid verify sweep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(ALL_WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn a termination request into SystemExit, so that subprocess.run
    # kills and reaps the running pass before the harness exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (PACKAGE / "__init__.py").is_file():
        print(f"no coxbraid package at {PACKAGE}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    workload = ALL_WORKLOADS[args.workload]
    env, removed = child_env(args.seed)
    try:
        metrics, passes = (trace if args.trace else measure)(args, env, deadline)
    except PassFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    for p in passes:
        if "digest" in p:
            a, f = judge(workload, p)
            attempted += a
            failed += f
    if args.trace:
        metrics["verify.items"] = (attempted, "count")
        metrics["fail_ratio"] = (failed / attempted, "ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    meta = metadata(args, removed, env)
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"metadata": meta, "passes": passes, "result": result}, indent=1))
    print(json.dumps({"metadata": meta, "record": str(record.relative_to(ROOT))}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
