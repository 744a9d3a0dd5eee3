"""The measured process of one benchmark run.

Imports ``apekit.cli`` once, then calls ``apekit.cli.main(argv)`` for each
command of the plan, one after another, and repeats the whole sequence
until the next repetition would end past ``--seconds`` (at least
``--min-iterations`` times). Between commands, outside the timed calls,
it hashes the files each command wrote and times a fixed calibration
kernel. With ``--trace`` every second repetition runs with the apekit
layers wrapped, so traced and untraced repetitions alternate under the
same machine conditions; the collected spans are written at the end.

    python3 worker.py --plan plan.json --result result.json --seconds 10 [--trace trace.json]

Runs in the workload's work directory with apekit's ``src`` on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import checks
import tracing

# A fixed pure-Python kernel, timed after every command. On a shared host
# the speed of a core drifts by 15-25% within minutes as neighbours load
# it, and apekit slows with it; scaling by this kernel's mean time over
# the run takes most of that drift out of the throughput the benchmark
# gates on. It is written out here rather than shared with checks.py so
# that no edit elsewhere can change what it measures.
_CALIBRATION_A = [f"w{(i * 7) % 23}" for i in range(60)]
_CALIBRATION_B = [f"w{(i * 5) % 23}" for i in range(60)]


def calibration_times() -> list:
    """Five timings of twelve 60x60 token edit distances each."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(12):
            prev = list(range(len(_CALIBRATION_B) + 1))
            for i, x in enumerate(_CALIBRATION_A, start=1):
                curr = [i]
                for j, y in enumerate(_CALIBRATION_B, start=1):
                    curr.append(min(prev[j] + 1, curr[j - 1] + 1, prev[j - 1] + (x != y)))
                prev = curr
        times.append(time.perf_counter() - start)
    return times


def run(plan, seconds, min_iterations, tracer):
    import apekit.cli

    iterations = []
    calibrations = calibration_times()
    began = time.perf_counter()
    while True:
        traced = tracer is not None and len(iterations) % 2 == 1
        if traced:
            tracer.run_id = len(iterations)
            tracing.install(tracer)
        commands = []
        for command in plan:
            error = None
            start = time.perf_counter()
            try:
                code = apekit.cli.main(command["argv"])
            except Exception:  # a crash is a failed command, not a failed benchmark
                code, error = None, traceback.format_exc()
            wall = time.perf_counter() - start
            digests = {}
            for out in command["outputs"]:
                path = Path(out)
                digests[out] = checks.output_digest(path) if path.is_file() else None
            commands.append({"name": command["name"], "exit_code": code, "wall_s": wall,
                             "digests": digests, "error": error})
            calibrations += calibration_times()
        if traced:
            tracer.restore()
        iterations.append({"traced": traced, "commands": commands})
        elapsed = time.perf_counter() - began
        if len(iterations) >= min_iterations and elapsed * (len(iterations) + 1) / len(iterations) > seconds:
            return iterations, calibrations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-iterations", type=int, default=2)
    parser.add_argument("--trace", default=None,
                        help="trace every second repetition, write spans here and require --expect to fire")
    parser.add_argument("--expect", nargs="*", default=[], help="traced functions that must fire")
    args = parser.parse_args(argv)

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    tracer = tracing.Tracer() if args.trace else None
    iterations, calibrations = run(plan, args.seconds, args.min_iterations, tracer)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        silent = sorted(set(args.expect) - tracer.fired_names())
        if silent:
            print(f"error: traced functions never fired on this workload: {silent}", file=sys.stderr)
            return 3
        tracer.dump(args.trace)
    result = {"iterations": iterations, "calibration_s": calibrations, "peak_rss_kb": peak_rss_kb}
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
