"""apekit benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload build --seed 1 --seconds 32 --trace 0

Generates the workload's inputs from the seed under ``.bench_work/``,
then starts one worker process that calls ``apekit.cli.main`` for each
subcommand of the workload, over and over for ``--seconds`` seconds, and
checks every output. ``--trace 0`` also times interpreter set-up and
prints the end-to-end metrics; with ``--trace 1`` the worker alternates
untraced and traced repetitions and the run prints the per-layer
metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
from workloads import WORKLOADS, plan_json  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 9
SETUP_CODE = (
    "import time\n"
    "import apekit.cli\n"
    "from apekit.langid import NgramLanguageClassifier\n"
    "NgramLanguageClassifier.default()\n"
    "print(time.monotonic())\n"
)
COMMAND_METRICS = ("filter", "preprocess", "postprocess", "evaluate", "significance", "buckets")
# Calibration kernel time (worker.calibration_times) on the host the
# bounds were set on. items_per_norm_s is the throughput that host would
# reach: items_per_s scaled by the run's mean kernel time over this.
CALIBRATION_REFERENCE_S = 0.025


class BenchmarkError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def _call(self, argv, tag):
        remaining = self.deadline - time.monotonic()
        with open(self.work / f"{tag}.log", "w", encoding="utf-8") as log:
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=log, stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=max(remaining, 1.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchmarkError(f"{tag} did not finish within the run limit") from None
        if code != 0:
            tail = (self.work / f"{tag}.log").read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchmarkError(f"{tag} exited with {code}:\n{tail}")

    def worker(self, commands, seconds, tag, min_iterations, trace_path=None, expect=()):
        plan = self.work / f"{tag}-plan.json"
        plan.write_text(plan_json(commands), encoding="utf-8")
        result = self.work / f"{tag}-result.json"
        argv = [sys.executable, str(HERE / "worker.py"), "--plan", plan.name, "--result", result.name,
                "--seconds", str(seconds), "--min-iterations", str(min_iterations)]
        if trace_path is not None:
            argv += ["--trace", trace_path.name, "--expect", *expect]
        self._call(argv, tag)
        return json.loads(result.read_text(encoding="utf-8"))

    def setup_times(self, samples):
        """Wall time from starting a fresh interpreter until it has imported
        apekit.cli and built the default language classifier. The child
        reads the same system-wide monotonic clock when it is done; the
        first start, which may compile bytecode, is not counted."""
        times = []
        for i in range(samples + 1):
            start = time.monotonic()
            self._call([sys.executable, "-c", SETUP_CODE], "setup")
            if i:
                done = float((self.work / "setup.log").read_text(encoding="utf-8").split()[-1])
                times.append(done - start)
        return times


def stamp() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "apekit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def tally(worker, semantic_errors):
    """Count commands attempted and failed across every timed iteration.

    A command fails when it exits non-zero, when its outputs differ from
    the first iteration's (reports compared without their timestamp), or
    when the output check of its final outputs fails.
    """
    reference = {c["name"]: c["digests"] for c in worker["iterations"][0]["commands"]}
    attempted, failed, messages = 0, 0, []
    for i, iteration in enumerate(worker["iterations"]):
        for command in iteration["commands"]:
            attempted += 1
            name = command["name"]
            problems = list(semantic_errors.get(name, []))
            if command["exit_code"] != 0:
                problems.append(f"exit code {command['exit_code']} {command['error'] or ''}".strip())
            if command["digests"] != reference[name] or None in command["digests"].values():
                problems.append(f"outputs differ from the first run: {command['digests']}")
            if problems:
                failed += 1
                messages.append(f"{name} (iteration {i}): {'; '.join(problems)[:500]}")
    return attempted, failed, messages


def sequence_walls(iterations):
    return [sum(c["wall_s"] for c in iteration["commands"]) for iteration in iterations]



def command_medians(iterations) -> dict:
    medians = {name: 0.0 for name in COMMAND_METRICS}
    for k, command in enumerate(iterations[0]["commands"]):
        medians[command["name"]] = statistics.median(it["commands"][k]["wall_s"] for it in iterations)
    return medians


def run_benchmark(workload_name, seed, seconds, traced):
    workload = WORKLOADS[workload_name]
    work = ROOT / ".bench_work" / workload_name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.monotonic() + RUN_LIMIT_S)

    manifest = workload.write_inputs(work, seed)
    if workload.prepare is not None:
        workload.prepare(work, seed, manifest,
                         lambda commands: runner.worker(commands, 0, "prepare", 1))
    commands = workload.commands(seed)
    metrics = {}
    if not traced:
        metrics["setup_s"] = (statistics.median(runner.setup_times(SETUP_SAMPLES)), "s")
        worker = runner.worker(commands, seconds, "untraced", min_iterations=2)
        untraced = worker["iterations"]
    else:
        trace_path = work / "trace.json"
        worker = runner.worker(commands, seconds, "traced", min_iterations=4, trace_path=trace_path,
                               expect=workload.trace_path)
        untraced = [it for it in worker["iterations"] if not it["traced"]]
        try:
            layers = tracing.summarize(trace_path)
        except RuntimeError as exc:
            raise BenchmarkError(str(exc)) from exc
        layers["trace.overhead_ratio"] = (
            statistics.median(sequence_walls(it for it in worker["iterations"] if it["traced"]))
            / statistics.median(sequence_walls(untraced))
        )

    throughput = {
        "items_per_s": workload.items / statistics.median(sequence_walls(untraced)),
        "calibration_ms": 1000.0 * statistics.fmean(worker["calibration_s"]),
    }
    if not traced:
        scale = throughput["calibration_ms"] / 1000.0 / CALIBRATION_REFERENCE_S
        metrics["items_per_norm_s"] = (throughput["items_per_s"] * scale, "1/s")
        metrics["peak_rss_mb"] = (worker["peak_rss_kb"] / 1024.0, "MB")

    semantic = workload.check(work, manifest)
    attempted, failed, messages = tally(worker, semantic)
    commands_s = command_medians(untraced)
    if traced:
        for name in COMMAND_METRICS:
            metrics[f"{name}_s"] = (commands_s[name], "s")
        metrics["failed_ops_ratio"] = (failed / attempted, "ratio")
        metrics.update({name: (value, _unit(name)) for name, value in throughput.items()})
        metrics.update({name: (value, _unit(name)) for name, value in layers.items()})
    for message in messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)

    info = stamp()
    summary = {f"{name}_s": commands_s[name] for name in COMMAND_METRICS if name in {c.name for c in commands}}
    summary["failed_ops_ratio"] = failed / attempted
    summary.update(throughput)
    summary["iterations"] = len(untraced)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (work / "result.json").write_text(
        json.dumps({"workload": workload_name, "seed": seed, "trace": int(traced), "stamp": info,
                    "commands": summary, **result}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"stamp {json.dumps(info)}")
    if not traced:
        for name, value in summary.items():
            print(f"{workload_name} {name} {value} {_unit(name)}")
    for name, (value, unit) in metrics.items():
        print(f"{workload_name} {name} {value} {unit}")
    print(json.dumps(result))


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s") or ".sentence_s." in name:
        return "s"
    if name.endswith("_ratio") or name.endswith("shift_yield"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "apekit" / "cli.py").is_file():
        print(f"error: apekit sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
