"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads example boxed3 open4 --seeds 1-10

For every workload and metric it prints the median over seeds and the
quartile spread ``(q3 - q1) / median`` (quartiles from
``statistics.quantiles(values, n=4)``), the figure a metric's ``bound`` in
``BENCHMARK.json`` is compared against. ``--out`` also writes the medians and
spreads as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in BENCHMARK["end_to_end"]}
    summary = {}
    worst = 0.0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            started = time.monotonic()
            proc = subprocess.run(cmd, capture_output=True, text=True)
            elapsed = time.monotonic() - started
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            runs.append(result["metrics"])
            print(f"{workload} seed {seed} ({elapsed:.1f} s): " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        summary[workload] = {}
        for name, first in runs[0].items():
            values = [r[name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            rel = (q3 - q1) / med if med else float("nan")
            summary[workload][name] = {"median": med, "unit": first["unit"], "spread": rel}
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, rel / bound)
                flag = "  OVER BOUND/3" if rel > bound / 3 else ""
            print(f"  {workload:8s} {name:28s} median {med:.6g} {first['unit']:6s} "
                  f"spread {rel:.4f}" + (f" bound {bound}" if bound else "") + flag)
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
