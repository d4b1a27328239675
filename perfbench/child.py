"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py --workload NAME --seed N --mode setup|sweep|trace|reference

``--mode reference`` runs only ``reference_s``, a fixed loop that gauges
the speed of the host; ``run.py`` scales the other passes by it.  The
other modes import coxbraid from ``src/`` of the checkout that holds this
file and build the workload's groups and their element lists (the
set-up).  All but ``--mode setup`` then run the workload's ``run_check``
calls in the order the seed gives, single threaded (``workers=1``).  ``--mode trace``
runs the same calls under ``layertrace.Tracer``.  The last line of
standard output is one JSON object with the timings and the verdict
digest; ``run.py`` reads it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE_LOOPS = 100_000


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int) -> None:
        self.a = a
        self.b = b

    def times(self, other: "_Pair") -> "_Pair":
        return _Pair((self.a * other.a + self.b) % 1009, (self.b * other.b + self.a) % 1013)


def reference_s() -> float:
    """Wall seconds of a fixed pure-Python loop that does not use coxbraid.

    It mixes what the sweeps spend their time on: tuple keys, a dict that
    grows to about 10^5 entries, method calls, small objects and short
    sorts.  The dict makes the loop touch memory beyond the core's own
    caches, as the sweeps' tables do.
    """
    started = time.perf_counter()
    seen: dict[tuple[int, int, int], int] = {}
    acc = _Pair(1, 2)
    for i in range(REFERENCE_LOOPS):
        key = (i % 97, i % 89, (i * 7 + 3) % 101)
        seen[key] = seen.get(key, 0) + 1
        acc = acc.times(_Pair(i % 13, i % 7))
        sorted(key)
    return time.perf_counter() - started


def peak_rss_mb() -> float:
    """Peak resident memory of this interpreter.

    ``VmHWM`` belongs to the address space that ``exec`` made, whereas
    ``ru_maxrss`` would also count the peak of the harness that started
    this interpreter.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("reference", "setup", "sweep", "trace"),
                        required=True)
    args = parser.parse_args(argv)
    if args.mode == "reference":
        print(json.dumps({"reference_s": reference_s()}))
        return 0

    sys.path.insert(0, str(HERE))
    from workloads import ALL_WORKLOADS, verdict_digest

    workload = ALL_WORKLOADS[args.workload]

    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import coxbraid
    from coxbraid.coxeter import coxeter_group
    from coxbraid.verify import run_check

    if SRC not in Path(coxbraid.__file__).resolve().parents:
        print(f"coxbraid was imported from {coxbraid.__file__}, not {SRC}", file=sys.stderr)
        return 3
    for family, rank in workload.groups:
        coxeter_group(family, rank).elements()
    setup_s = time.perf_counter() - started
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.mode == "trace":
        from layertrace import Tracer

        tracer = Tracer()
    verdicts: list[tuple[str, str, bool]] = []
    raised: list[str] = []
    with tracer or contextlib.nullcontext():
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for call in workload.ordered_calls(args.seed):
            try:
                report = run_check(call.theorem, call.family, call.rank,
                                   coxeter=call.coxeter, workers=1)
            except Exception as exc:  # a raising sweep is a failed verdict, not a crash
                raised.append(f"{call.theorem} {call.coxeter}: {type(exc).__name__}: {exc}")
                continue
            verdicts.extend((call.theorem, str(it["item"]), bool(it["ok"])) for it in report.items)
        sweep_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
    out = {
        "setup_s": setup_s,
        "sweep_s": sweep_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb(),
        "items": len(verdicts),
        "not_ok": sum(1 for v in verdicts if not v[2]),
        "digest": verdict_digest(verdicts),
        "raised": raised,
    }
    if tracer is not None:
        out["trace"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
