"""Host-speed benchmark of the cellsched simulator.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process against the unmodified package under
``src/`` and prints every metric by name with its unit; the last line of
standard output is one JSON object (correct, attempted, failed, metrics).

The workload is a closed loop with one caller: each operation starts when
the previous one returns.  A run

1. times ``setup_probe.py`` in fresh processes (``setup_s``);
2. cycles over the workload's parts for ``--seconds`` seconds, at least
   twice, with tracing off; the first cycle also counts simulated slots
   (``serve_slot`` calls) and fixes each part's output digest;
   every time is scaled to a nominal host speed (``hostspeed.py``);
3. with ``--trace 1``, runs the first quarter of the parts once more under
   the tracer and prints the per-layer metrics instead of the end-to-end
   ones.

Every part's outputs are checked after it returns, outside the timed
region; a failed check or an exception counts against ``error_rate``.  The
inputs come from ``--seed`` alone.  Nothing outside the checkout is read or
written; outputs go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import NOMINAL_S, HostSpeed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SPAWNS = 11
MIN_CYCLES = 2
# share of the parts, from the first, that the traced pass runs
TRACED_SHARE = 0.25


class PackageMissing(Exception):
    pass


def import_package() -> None:
    """Put the checkout's ``src/`` first on the path and import cellsched from it."""
    package = SRC / "cellsched"
    if not (package / "__init__.py").is_file():
        raise PackageMissing(f"no cellsched package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cellsched

    if Path(cellsched.__file__).resolve().parent != package.resolve():
        raise PackageMissing(f"imported cellsched from {cellsched.__file__}")


def git_revision() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def measure_setup(mappings: list, workdir: Path) -> list[float]:
    """Scaled wall seconds of fresh processes that import cellsched.cli and
    decode the configs."""
    path = workdir / "setup_configs.json"
    path.write_text(json.dumps(mappings))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(path)]
    host = HostSpeed()
    times = []
    for _ in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=120)
        times.append(time.perf_counter() - t0)
        host.mark()
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr.decode()[-2000:]}")
    scaled = [t * f for t, f in zip(times, host.scales())]
    # the first spawn also writes bytecode caches, which users pay once
    return scaled[1:]


class Tally:
    """Attempted and failed operations, check problems, and output digests."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[str | None] = [None] * workload.parts
        self.host = HostSpeed()

    def fail(self, ops: int, problems: list[str]) -> None:
        self.failed += ops
        self.problems.extend(problems)

    def execute(self, k: int, instruments=()) -> tuple[float, int] | None:
        """Run part k with the instruments installed (timed), then check it (untimed).

        Returns the part's host seconds and the index of its interval in
        ``self.host``; None if the part raised.
        """
        wl = self.workload
        ops = wl.ops(k)
        self.attempted += ops
        try:
            with contextlib.ExitStack() as stack:
                for instrument in instruments:
                    stack.enter_context(instrument.installed())
                t0 = time.perf_counter()
                result = wl.run_part(k)
                elapsed = time.perf_counter() - t0
        except Exception:
            self.host.mark()
            self.fail(ops, [f"part {k} raised:\n{traceback.format_exc()}"])
            return None
        interval = self.host.mark()
        try:
            piece, failed_ops, problems = wl.check_part(k, result)
        except Exception:
            piece, failed_ops = None, ops
            problems = [f"part {k} check raised:\n{traceback.format_exc()}"]
        if self.digests[k] is None:
            self.digests[k] = piece
        elif piece != self.digests[k]:
            failed_ops = ops
            problems.append(f"part {k}: outputs differ from the first pass")
        if failed_ops:
            self.fail(failed_ops, problems)
        return elapsed, interval

    def sim_digest(self) -> str:
        joined = "\n".join(d or "missing" for d in self.digests)
        return hashlib.sha1(joined.encode()).hexdigest()


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99), by statistics.quantiles' default method."""
    if len(values) < 2:
        return values[0] if values else math.nan
    return statistics.quantiles(values, n=100)[q - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import_package()
    except PackageMissing as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    from tracer import RunTimer, SlotCounter, Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    workdir = OUT / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    parts = range(wl.parts)

    setup_times = measure_setup(wl.config_mappings, workdir)

    tally = Tally(wl)
    # The first cycle also counts simulated slots, part by part; a counter on
    # serve_slot costs about one function call per slot.
    part_slots = [0] * wl.parts
    executions: list[tuple[int, float, int, list[float]]] = []
    cycles = 0
    started = time.perf_counter()
    while cycles < MIN_CYCLES or time.perf_counter() - started < args.seconds:
        for k in parts:
            timer = RunTimer()
            instruments = [timer]
            if cycles == 0:
                counter = SlotCounter()
                instruments.append(counter)
            timed = tally.execute(k, instruments)
            if cycles == 0:
                part_slots[k] = counter.slots
            if timed is not None:
                executions.append((k, *timed, timer.latencies))
        cycles += 1
    measured_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Times are scaled to the nominal host speed (see hostspeed.py).  A
    # part's time is the median of its repeats, a cycle apart; wall_s sums
    # the parts.  A run's latency is its fastest repeat, since a single
    # interruption can double a run of a millisecond; the percentiles are
    # taken over the distinct runs of a cycle.
    scales = tally.host.scales()
    part_times: list[list[float]] = [[] for _ in parts]
    raw_times: list[list[float]] = [[] for _ in parts]
    run_times: list[list[list[float]]] = [[] for _ in parts]
    for k, elapsed, interval, latencies in executions:
        raw_times[k].append(elapsed)
        part_times[k].append(elapsed * scales[interval])
        run_times[k].append([x * scales[interval] for x in latencies])
    part_s = [statistics.median(t) if t else math.nan for t in part_times]
    wall_s = sum(part_s)
    raw_wall_s = sum(statistics.median(t) if t else math.nan for t in raw_times)
    run_ms = [
        1000.0 * min(samples)
        for repeats in run_times
        if repeats and all(len(r) == len(repeats[0]) for r in repeats)
        for samples in zip(*repeats)
    ]

    end_to_end = {
        "wall_s": (wall_s, "s"),
        "slots_per_s": (sum(part_slots) / wall_s, "1/s"),
        "run_ms_p50": (quantile(run_ms, 50), "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }

    per_layer = None
    traced = range(max(1, round(wl.parts * TRACED_SHARE)))
    if args.trace:
        tracer = Tracer()
        traced_runs = [tally.execute(k, [tracer]) or (math.nan, 0) for k in traced]
        scales = tally.host.scales()
        traced_s = sum(elapsed * scales[interval] for elapsed, interval in traced_runs)
        traced_scale = traced_s / sum(elapsed for elapsed, _ in traced_runs)
        per_layer = {
            name: (value * traced_scale if unit == "s" else value, unit)
            for name, (value, unit) in tracer.layer_metrics().items()
        }
        per_layer["trace.wall_s"] = (traced_s, "s")
        per_layer["trace.overhead_s"] = (traced_s - sum(part_s[k] for k in traced), "s")
        expected = sum(part_slots[k] for k in traced)
        if per_layer["simcore.slots"][0] != expected:
            tally.fail(1, [
                f"traced pass saw {per_layer['simcore.slots'][0]} slots, "
                f"the first cycle {expected}"
            ])
        tracer.write(workdir / "spans.bin")

    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    group_of = {
        metric: group["name"]
        for group in json.loads((BENCH / "layers.json").read_text())["groups"]
        for metric in group["metrics"]
    }

    print(f"cellsched host-speed benchmark: workload={wl.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"host: nproc={os.cpu_count()} python={platform.python_version()} "
          f"git={git_revision()}")
    print("model unvalidated: no reference results")
    print(f"closed loop, one caller: {wl.parts} parts x {cycles} timed cycles "
          f"in {measured_s:.1f} s; {sum(part_slots)} simulated slots per cycle")
    print(f"host speed: times are scaled to a {NOMINAL_S * 1000:g} ms calibration "
          f"kernel; unscaled wall_s {raw_wall_s:.6g} s "
          f"(scale {wall_s / raw_wall_s:.3f})")
    if args.trace:
        print(f"traced pass: parts 0-{len(traced) - 1} of {wl.parts}, "
              f"{sum(part_slots[k] for k in traced)} slots")
    print(f"sim_digest: {tally.sim_digest()}  (information, not a gate)")
    print(f"error_rate: {error_rate:.6g} ratio  "
          f"({tally.failed} failed of {tally.attempted} attempted operations)")
    print(f"run_ms samples: {len(run_ms)} distinct runs, each the fastest of "
          f"{min((len(r) for r in run_times), default=0)}+ repeats")
    # The heaviest one or two replication seeds set it, so it is not gated.
    print(f"run_ms_p99: {quantile(run_ms, 99):.6g} ms  (information, not a gate)")
    for problem in tally.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    shown = per_layer if per_layer is not None else end_to_end
    for name, (value, unit) in shown.items():
        print(f"  {name:<28} {value:>16.6g} {unit:<6} {group_of.get(name, '')}")

    result = {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        # a part that never completed leaves NaN, which JSON cannot carry
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": unit}
            for name, (value, unit) in shown.items()
        },
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
