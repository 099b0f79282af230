"""Steadiness check: run a workload with several seeds and report, for each
end-to-end metric, the spread of its values (distance between the first
and third quartile, as a share of the median) against the bound that
BENCHMARK.json fixes.

    python3 perfbench/steadiness.py --workload fallback --runs 5
    python3 perfbench/steadiness.py --workload all --runs 10 --first-seed 101
    python3 perfbench/steadiness.py --workload all --runs 10 --first-seed 201 \\
        --against .perfbench/steadiness-all-seed101.json

A spread must stay below a third of the metric's bound (setup_s is
exempt); ``--against`` also compares each median with the one in an
earlier summary, which may differ by no more than the bound.  Runs are
sequential, one process at a time.  Exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(new: float, old: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    return (old - new) / old if better == "higher" else (new - old) / old


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=101)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--against", type=Path, help="earlier summary to compare medians with")
    args = parser.parse_args(argv)
    chosen = names if args.workload == "all" else [args.workload]
    earlier = json.loads(args.against.read_text()) if args.against else {}

    summary, ok = {}, True
    for name in chosen:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode or not result["correct"]:
                print(f"{name} seed {seed}: exit {proc.returncode}, {result['failed']} failed")
                ok = False
            for key in values:
                values[key].append(result["metrics"][key]["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.5g}" for k, v in values.items()), flush=True)
        summary[name] = {}
        for m in spec["end_to_end"]:
            vals = values[m["name"]]
            row = {"values": vals, "median": statistics.median(vals), "spread": spread(vals),
                   "bound": m["bound"]}
            verdict = "ok"
            if m["name"] != "setup_s" and row["spread"] >= m["bound"] / 3:
                verdict = "SPREAD ABOVE BOUND/3"
            if name in earlier:
                row["drift"] = worse_by(row["median"], earlier[name][m["name"]]["median"],
                                        m["better"])
                if row["drift"] > m["bound"]:
                    verdict = "MEDIAN WORSE THAN EARLIER BY MORE THAN BOUND"
            ok = ok and verdict == "ok"
            summary[name][m["name"]] = row
            drift = f" drift {row['drift']:+.3f}" if "drift" in row else ""
            print(f"  {name:9s} {m['name']:18s} median {row['median']:.5g} {m['unit']:4s} "
                  f"spread {row['spread']:.3f} (bound {m['bound']}){drift}  {verdict}")
    out = ROOT / ".perfbench" / f"steadiness-{args.workload}-seed{args.first_seed}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary written to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
