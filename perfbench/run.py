"""Benchmark of cyclosvp: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tower --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` measures the
per-layer metrics in a separate run (see tracer.py).  Every output is
checked.  The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics; a human-readable summary
precedes it and a result file with machine details is written to
``.perfbench/``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

from tracer import MODULES, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = ROOT / ".perfbench"

DEFAULT_SEED = 1
VALIDATION_SEED = 2  # reserved: never used while writing a change, only to confirm its claim
DEFAULT_SECONDS = 20
WORKLOADS = ("tower", "pell", "fallback", "large_p")
SETUP_EVERY_S = 2.0  # one set-up sample per this many seconds of timed calls

# (name, unit, better, bound); bound is the share of the parent's median
# by which the metric may worsen before a change counts as a regression.
END_TO_END = (
    ("throughput_ops_s", "1/s", "higher", 0.25),
    ("latency_p50_ms", "ms", "lower", 0.25),
    ("latency_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
)

# Per-layer metrics reported by the traced run: (name, unit, better).
TRACED_FUNCTIONS = (
    "lattice.lll_reduce", "lattice.svp_enumerate", "lattice.lattice_from_rows",
    "lattice.lift_ideal_lattice", "lattice.contains", "lattice.gauss_reduce_gram",
    "pell.solve_pell",
    "ntheory.is_prime", "ntheory.sqrt_mod", "ntheory.root_of_minus_one",
    "rings.mul", "rings.lift_element", "rings.canonical_sq_length",
    "idealsvp.lambda1_squared", "idealsvp.shortest_vector", "idealsvp.cornacchia",
    "idealsvp.result_to_json",
    "cli.run",
)
PER_LAYER = (
    tuple((f"{m}.{kind}", unit, "lower") for m in MODULES
          for kind, unit in (("self_s", "s"), ("share", "ratio")))
    + tuple((f"{f}.{kind}", unit, "lower") for f in TRACED_FUNCTIONS
            for kind, unit in (("calls", "count"), ("self_s", "s")))
    + (
        ("lattice.lll_reduce.gram_bits_max", "bits", "lower"),
        ("lattice.svp_enumerate.exhausted", "count", "lower"),
        ("lattice.svp_enumerate.useful_ratio", "ratio", "higher"),
        ("ntheory.is_prime.calls_per_op", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.unspanned_s", "s", "lower"),
    )
)


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def check_layout() -> None:
    """Refuse to run without the program's sources, or when BENCHMARK.json
    disagrees with the metrics defined here."""
    if not (SRC / "cyclosvp" / "__init__.py").is_file():
        fail(f"no cyclosvp sources under {SRC}; run from a checkout of the repository")
    spec = ROOT / "BENCHMARK.json"
    if spec.is_file():
        data = json.loads(spec.read_text())
        if ([w["name"] for w in data["workloads"]] != list(WORKLOADS)
                or [tuple(m.values()) for m in data["end_to_end"]] != list(END_TO_END)
                or [tuple(m.values()) for m in data["per_layer"]] != list(PER_LAYER)):
            fail("BENCHMARK.json lists other workloads or metrics than perfbench/run.py")


SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import cyclosvp, cyclosvp.cli
print(repr(time.perf_counter() - t0))
"""


def setup_once() -> float:
    """Time to import cyclosvp and its CLI in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout)


class Tally:
    """Attempted and failed operations plus the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, op, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{op!r}: {error}")


def run_op(wl, op, tally: Tally) -> float:
    """Time one operation, then check its output outside the timed region.
    Returns the latency in seconds."""
    start = perf_counter()
    try:
        result = wl.call(op)
        error = None
    except Exception as exc:  # a raising operation is a failed operation
        error = f"raised {exc!r}"
    latency = perf_counter() - start
    if error is None:
        try:
            error = wl.check(op, result)
        except Exception as exc:  # output the checker could not even parse
            error = f"check raised {exc!r}"
    tally.record(op, error)
    return latency


def calibration_ms() -> float:
    """Time of a fixed pure-Python loop: how fast the machine ran just
    then, recorded so that runs on a shared machine can be compared."""
    start = perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i % 7
    return 1000 * (perf_counter() - start)


def run_rounds(wl, seconds: float, tally: Tally, mix, calibration: list,
               setup: list) -> array:
    """Closed loop, one caller: whole rounds, ending at the round boundary
    nearest to ``seconds`` of timed calls, so that a workload whose round
    is long runs the same number of rounds on a slightly faster or slower
    machine.  Between operations, untimed, it samples the calibration loop
    and the set-up time, so that both see the whole run and not only its
    first seconds: on a shared host the speed changes every few seconds.
    Returns the per-operation latencies."""
    latencies = array("d")
    busy = last_round = 0.0
    while busy == 0.0 or busy + last_round / 2 < seconds:
        start = busy
        for op in wl.next_round():
            if busy >= len(calibration):  # about once per second of calls
                calibration.append(calibration_ms())
            if busy >= SETUP_EVERY_S * len(setup):
                setup.append(setup_once())
            latency = run_op(wl, op, tally)
            latencies.append(latency)
            busy += latency
            mix.add(op)
        last_round = busy - start
    return latencies


def tail(latencies, percentile: float) -> tuple[float, int]:
    """(value, samples beyond it) of the nearest-rank percentile.

    Each workload fixes its percentile: the highest of 75, 80, 90, 95, 99
    that leaves at least 10 samples beyond it in a default-length run and
    falls neither on a gap between groups of operations of different cost
    nor where the host's stalls decide it.  A percentile chosen from each
    run's own sample count would rise as the program gets faster and so
    penalise a speed-up."""
    ordered = sorted(latencies)
    k = max(0, math.ceil(percentile / 100 * len(ordered)) - 1)
    return ordered[k], len(ordered) - 1 - k


def end_to_end(wl, seconds: float, tally: Tally, mix) -> tuple[dict, dict]:
    failed_before = tally.failed
    calibration: list[float] = []
    setup: list[float] = []
    latencies = run_rounds(wl, seconds, tally, mix, calibration, setup)
    busy = sum(latencies)
    tail_s, beyond = tail(latencies, wl.TAIL_PERCENTILE)
    values = {
        "throughput_ops_s": (len(latencies) - (tally.failed - failed_before)) / busy,
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup),
    }
    details = {"operations": len(latencies), "busy_s": busy,
               "calibration_loop_ms": statistics.median(calibration),
               "setup_samples_s": setup,
               "latency_tail_percentile": wl.TAIL_PERCENTILE,
               "latency_samples": len(latencies), "latency_samples_beyond_tail": beyond}
    return values, details


def per_layer(wl, seconds: float, tally: Tally, mix, spans_path: Path) -> tuple[dict, dict]:
    """Each round twice, untraced and traced, in alternating order so that
    drift in the machine's speed cancels; the difference is the tracing
    overhead.  Rounds continue until the untraced passes reach half of
    ``seconds``."""
    tracer = Tracer()
    untraced = traced = 0.0
    operations = rounds = 0
    while untraced < seconds / 2:
        ops = wl.next_round()
        for traced_pass in ((False, True) if rounds % 2 == 0 else (True, False)):
            if traced_pass:
                tracer.install()
            try:
                busy = sum(run_op(wl, op, tally) for op in ops)
            finally:
                tracer.uninstall()
            if traced_pass:
                traced += busy
            else:
                untraced += busy
        for op in ops:
            mix.add(op)
        operations += len(ops)
        rounds += 1
    tracer.write_spans(spans_path)
    stats = tracer.stats
    values: dict[str, float] = {}
    for mod in MODULES:
        self_s = sum(s[1] for name, s in stats.items() if name.startswith(mod + "."))
        values[f"{mod}.self_s"] = self_s
        values[f"{mod}.share"] = self_s / traced
    for name in TRACED_FUNCTIONS:
        values[f"{name}.calls"] = stats[name][0]
        values[f"{name}.self_s"] = stats[name][1]
    calls, _, _, raised = stats["lattice.svp_enumerate"]
    values["lattice.lll_reduce.gram_bits_max"] = tracer.gram_bits_max
    values["lattice.svp_enumerate.exhausted"] = raised
    values["lattice.svp_enumerate.useful_ratio"] = (calls - raised) / calls if calls else 0.0
    values["ntheory.is_prime.calls_per_op"] = stats["ntheory.is_prime"][0] / operations
    values["trace.overhead_s"] = traced - untraced
    values["trace.unspanned_s"] = traced - tracer.root_s
    details = {
        "operations": operations,
        "rounds": rounds,
        "untraced_s": untraced,
        "traced_s": traced,
        "spans_recorded": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "spans_file": str(spans_path.relative_to(ROOT)),
        "functions": {name: {"calls": s[0], "self_s": s[1], "total_s": s[2], "raised": s[3]}
                      for name, s in sorted(stats.items())},
    }
    return values, details


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "implementation": platform.python_implementation(), "platform": platform.platform()}


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    check_layout()
    sys.path.insert(0, str(SRC))
    import cyclosvp
    if Path(cyclosvp.__file__).resolve().parent != SRC / "cyclosvp":
        fail(f"imported cyclosvp from {cyclosvp.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[name](seed)
    tally = Tally()
    for op in wl.warmup():  # checked like every operation, but not timed
        run_op(wl, op, tally)
    mix = workloads.Mix()
    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        values, details = per_layer(wl, seconds, tally, mix, RESULTS / f"{stem}-spans.jsonl")
        spec = PER_LAYER
    else:
        values, details = end_to_end(wl, seconds, tally, mix)
        spec = END_TO_END
    details["error_rate"] = tally.failed / tally.attempted
    metrics = {m[0]: {"value": values[m[0]], "unit": m[1]} for m in spec}
    correct = tally.failed == 0
    record = {
        "workload": name, "why": wl.why, "seed": seed, "default_seed": DEFAULT_SEED,
        "validation_seed": VALIDATION_SEED, "seconds": seconds, "trace": trace,
        "commit": commit(), "machine": machine(), "mix": mix.summary(),
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "errors": tally.errors, "metrics": metrics, "details": details,
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {name} (seed {seed}, {seconds:g} s, trace {int(trace)}): {wl.why}")
    print(f"#   mix: {json.dumps(mix.summary())}")
    for key, m in metrics.items():
        print(f"#   {key:40s} {m['value']:.6g} {m['unit']}")
    print(f"#   {'error_rate':40s} {details['error_rate']:.6g} share "
          f"({tally.failed} of {tally.attempted} operations)")
    if not trace:
        print(f"#   latency_tail_ms is p{details['latency_tail_percentile']:g} of "
              f"{details['latency_samples']} samples, "
              f"{details['latency_samples_beyond_tail']} beyond it")
    for err in tally.errors:
        print(f"#   FAILED {err}")
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    check_layout()
    results, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__)), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(int(trace))],
                              stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        status = status or proc.returncode
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
