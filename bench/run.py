"""The evmsem benchmark.

    python3 bench/run.py --workload exec-synth --seed 1 --seconds 60 --trace 0

runs one workload from the root of a source checkout (evmsem is imported
from `src/`) in this process and thread, as a closed loop with one caller:
whole passes over the workload's ops, each op started when the previous one
ended, until `--seconds` have elapsed. Every op is checked against a
reference evmsem did not compute. The last line of standard output is one
JSON object with the end-to-end metrics (`--trace 0`) or the per-layer
metrics of a traced run (`--trace 1`). `--workload all` runs each workload
in its own process. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import synth  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

SETUPS = 11             # set-ups per run, spread over it; setup_s is their median
OP_CAP_S = 30.0         # wall-clock cap per op, far above any op's normal time
OVERRUN_S = 100.0       # a pass stops starting ops this long after --seconds
MIN_OPS = 100           # ops a run needs at least, so every op repeats several times

# the baseline block: unit, and the ROADMAP figure each one reproduces
BASELINE = {
    "baseline.corpus_steps_per_s": ("1/s", "81k"),
    "baseline.deep_stack_steps_per_s": ("1/s", "55k"),
    "baseline.mstore_2k_sparse_steps_per_s": ("1/s", "87k (density not stated)"),
    "baseline.mstore_2k_dense_steps_per_s": ("1/s", "87k (density not stated)"),
    "baseline.mstore_32k_sparse_steps_per_s": ("1/s", "47k (density not stated)"),
    "baseline.mstore_32k_dense_steps_per_s": ("1/s", "47k (density not stated)"),
    "baseline.keccak_32b_ms": ("ms", "0.8"),
    "baseline.keccak_32k_ms": ("ms", "140"),
    "baseline.src_lines": ("lines", "3770"),
}


class OpCapped(Exception):
    """An op ran past OP_CAP_S."""


_armed = False


def _on_alarm(signum, frame):
    if _armed:
        raise OpCapped()


def run_op(op, tracer=None):
    """Run one op under the wall-clock cap; returns (seconds, ok, steps, incomplete)."""
    global _armed
    _armed = True
    signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
    t0 = perf_counter()
    try:
        if tracer is not None and op.prop is not None:
            with tracer.checker(op.prop):
                ok, steps, incomplete = op.run()
        else:
            ok, steps, incomplete = op.run()
    except OpCapped:
        ok, steps, incomplete = False, 0, False
        print(f"capped after {OP_CAP_S:.0f} s: {op.label}", file=sys.stderr)
    except Exception:      # any failure of the program under test is a failed op
        ok, steps, incomplete = False, 0, False
        print(f"exception in {op.label}:\n{traceback.format_exc(limit=3)}", file=sys.stderr)
    finally:
        _armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
    dt = min(perf_counter() - t0, OP_CAP_S)
    if not ok:
        print(f"failed: {op.label}", file=sys.stderr)
    return dt, ok, steps, incomplete


def measure(ops, seconds=None, passes=None, tracer=None, min_ops=0, between=None) -> dict:
    """Whole passes over `ops` until `seconds` have elapsed and `min_ops` ops
    have run, or exactly `passes` passes. A pass still running OVERRUN_S
    after `seconds` is cut short and not counted as a pass. `between(t)` is
    called after each pass with the seconds elapsed; the time it takes
    counts towards `seconds` but not towards the returned `elapsed`."""
    signal.signal(signal.SIGALRM, _on_alarm)
    latencies, by_op = [], [[] for _ in ops]
    steps = failed = incomplete = done = 0
    t_between = 0.0
    t0 = perf_counter()
    limit = (seconds or 0) + OVERRUN_S
    while True:
        for op, own in zip(ops, by_op):
            if perf_counter() - t0 > limit:
                break
            dt, ok, n, inc = run_op(op, tracer)
            latencies.append(dt)
            own.append(dt)
            steps += n
            failed += not ok
            incomplete += inc
        else:
            done += 1
            if between is not None:
                t = perf_counter()
                between(t - t0)
                t_between += perf_counter() - t
        if perf_counter() - t0 > limit or done == passes:
            break
        if passes is None and perf_counter() - t0 >= seconds and len(latencies) >= min_ops:
            break
    return {"elapsed": perf_counter() - t0 - t_between, "latencies": latencies, "by_op": by_op,
            "steps": steps, "failed": failed, "incomplete": incomplete, "passes": done}


def setup(workload: str, seed: int):
    """Import evmsem afresh and build the workload's inputs; returns
    (modules, ops, seconds taken)."""
    t0 = perf_counter()
    ev = workloads.import_evmsem(ROOT)
    ops = workloads.build_ops(workload, ev, seed)
    return ev, ops, perf_counter() - t0


def _median_rate(fn, reps=5) -> float:
    rates = []
    for _ in range(reps):
        t0 = perf_counter()
        work = fn()
        rates.append(work / (perf_counter() - t0))
    return statistics.median(rates)


def _median_ms(fn, reps) -> float:
    times = []
    for _ in range(reps):
        t0 = perf_counter()
        fn()
        times.append(1e3 * (perf_counter() - t0))
    return statistics.median(times)


def baseline(ev) -> dict:
    """Untraced figures that reproduce the ROADMAP baseline."""
    fixtures = {p.stem: ev.fixtures.parse_fixture(p) for p in workloads.corpus_paths(ROOT)}

    def tx_steps(fs):
        def go():
            return sum(len(ev.transaction.execute_transaction(
                f.tx, f.header, f.pre, ancestors=f.ancestors)[1]) for f in fs)
        return go

    def prog_steps(op):
        def go():
            ok, steps, _ = op.run()
            if not ok:
                raise RuntimeError(f"baseline program {op.label} gave a wrong result")
            return steps
        return go

    out = {
        "baseline.corpus_steps_per_s": _median_rate(tx_steps(
            [f for name, f in fixtures.items() if name != "deep_recursion"])),
        "baseline.deep_stack_steps_per_s": _median_rate(tx_steps(
            [fixtures["deep_recursion"]])) if "deep_recursion" in fixtures else 0.0,
    }
    for kb in (2, 32):
        for label, density in (("sparse", 0.06), ("dense", 1.0)):
            prog = synth.generate(0, [("memory", kb, density, 2)])[0]
            out[f"baseline.mstore_{kb}k_{label}_steps_per_s"] = _median_rate(
                prog_steps(workloads.tx_op(ev, prog)))
    out["baseline.keccak_32b_ms"] = _median_ms(lambda: ev.keccak.keccak256(bytes(32)), 21)
    out["baseline.keccak_32k_ms"] = _median_ms(lambda: ev.keccak.keccak256(bytes(32768)), 3)
    out["baseline.src_lines"] = sum(len(p.read_text().splitlines())
                                    for p in (ROOT / "src" / "evmsem").rglob("*.py"))
    return out


def _result(correct: bool, run: dict, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": len(run["latencies"]),
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def end_to_end(workload: str, seed: int, seconds: int) -> int:
    _, ops, first = setup(workload, seed)
    times = [first]

    def set_up_again(elapsed):
        # The other set-ups run between passes, spread over the run, so that
        # their median samples the shared host over the run as the op times
        # do. Each re-imports evmsem; the ops under test keep the modules
        # they were built with.
        if len(times) < SETUPS and elapsed >= seconds * len(times) / SETUPS:
            times.append(setup(workload, seed)[2])

    run = measure(ops, seconds=seconds, min_ops=MIN_OPS, between=set_up_again)
    while len(times) < SETUPS:
        times.append(setup(workload, seed)[2])
    setup_s = statistics.median(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = sorted(run["latencies"])
    n = len(lat)
    # Each op is deterministic and runs once per pass; its time is its fastest
    # over the run's passes, as timeit reports. The host is shared: identical
    # passes there run up to 1.8x slower for tens of seconds at a time, so the
    # slower repeats measure the other tenants, not evmsem.
    fastest = [min(own) for own in run["by_op"] if own]
    throughput = len(fastest) / sum(fastest)
    p50, p90 = statistics.median(fastest), statistics.quantiles(fastest, n=10)[8]
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (throughput, "1/s"),
        "latency_p50_ms": (1e3 * p50, "ms"),
        "latency_p90_ms": (1e3 * p90, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    print(f"{workload}  seed={seed}  passes={run['passes']}  ops={n}  "
          f"elapsed={run['elapsed']:.2f} s  ({len(ops)} ops per pass)")
    print(f"  setup_s           {setup_s:.4f} s   median of {SETUPS} set-ups spread over the run")
    print(f"  throughput_ops_s  {throughput:.3f} 1/s   a pass at each op's fastest time; "
          f"{n / run['elapsed']:.3f} over the whole run")
    print(f"  latency_p50_ms    {1e3 * p50:.3f} ms   median of {len(fastest)} per-op fastest times; "
          f"{1e3 * statistics.median(lat):.3f} over all {n} ops")
    print(f"  latency_p90_ms    {1e3 * p90:.3f} ms   90th percentile of the per-op fastest times; "
          f"{1e3 * statistics.quantiles(lat, n=10)[8]:.3f} over all {n} ops")
    if workload == "exec-synth":
        print(f"  steps_per_s       {run['steps'] / run['elapsed']:.0f} 1/s   "
              f"{run['steps']} steps (summed trace length)")
    print(f"  error_rate        {run['failed'] / n:.4f}   {run['failed']} of {n} ops failed")
    print(f"  peak_rss_mb       {rss_mb:.1f} MB")
    print(_result(run["failed"] == 0, run, metrics))
    return 0


def traced(workload: str, seed: int, seconds: int) -> int:
    ev, ops, _ = setup(workload, seed)
    base = baseline(ev)
    plain = measure(ops, seconds=seconds / 4)
    tracer = Tracer(ev)
    tracer.install()
    try:
        ops = workloads.build_ops(workload, ev, seed)
        run = measure(ops, passes=max(1, plain["passes"]), tracer=tracer)
    finally:
        tracer.restore()
    metrics = tracer.metrics(run["incomplete"], run["passes"])
    metrics["trace.overhead_ratio"] = (run["elapsed"] / plain["elapsed"], "ratio")
    for name, value in base.items():
        metrics[name] = (value, BASELINE[name][0])

    # tracing must not change behaviour: equal step counts on equal work
    same = tracer.calls["step"] == run["steps"] == plain["steps"] or workload != "exec-synth"
    print(f"{workload}  seed={seed}  traced {run['passes']} passes, {len(run['latencies'])} ops "
          f"in {run['elapsed']:.2f} s; untraced {plain['elapsed']:.2f} s")
    if workload == "exec-synth":
        print(f"  step calls traced {tracer.calls['step']}, summed trace length "
              f"traced {run['steps']}, untraced {plain['steps']}: "
              f"{'equal' if same else 'DIFFERENT'}")
    if tracer.missing:
        print(f"  patch points not found: {', '.join(tracer.missing)}")
    for name, (value, unit) in metrics.items():
        note = f"   ROADMAP: {BASELINE[name][1]}" if name in BASELINE else ""
        print(f"  {name:44s} {value:.6g} {unit}{note}")
    print(_result(run["failed"] == 0 and plain["failed"] == 0 and same, run, metrics))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if args.workload == "all":
        for name in workloads.WORKLOADS:
            code = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)]).returncode
            if code:
                return code
        return 0

    if not (ROOT / "src" / "evmsem" / "__init__.py").is_file():
        print(f"evmsem sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "check-corpus" and not workloads.corpus_paths(ROOT):
        print("no corpus fixtures under src/evmsem/corpus", file=sys.stderr)
        return 2
    if args.trace:
        return traced(args.workload, args.seed, args.seconds)
    return end_to_end(args.workload, args.seed, args.seconds)


if __name__ == "__main__":
    sys.exit(main())
