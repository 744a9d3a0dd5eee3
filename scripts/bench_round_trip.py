"""Compare source trees on the benchmark, the corpus-build round trip at several sizes, and the eval commands.

With --seeds, each tree's own `perfbench/run.py` runs every workload of
--workloads once per seed (`--trace 0`), the trees alternating in order
from seed to seed; the end-to-end metrics of each run and their medians
are recorded. Then the `build` workload's commands (`filter`,
`preprocess`, `postprocess`) run at each of --sizes input triplets, on
inputs from `perfbench/generate.py` (the `build` workload's generator).
Every command line comes from `perfbench/workloads.py`, so the figures
are of exactly the commands the benchmark runs. For every tree the
three commands run one after another, each in a fresh interpreter that
reports its own wall time and `ru_maxrss`. Linux counts in a child's
`ru_maxrss` the memory of the process that started it, so this script
keeps its own small: the generator, and the import of the workloads
that yields the command lines, also run in child processes. Trees
alternate in order from one repetition to the next, so a drifting host
affects them alike. The outputs of every tree are hashed, so the result
also shows whether the trees wrote the same bytes.

Last, the eval workloads' commands run at the north star's test-set
sizes, the same way (fresh interpreters, trees alternating per
repetition), on `generate.write_eval_inputs` pairs with the benchmark's
specs: `eval_subtitle` (`evaluate --hyp-b --per-sentence`, `significance
--statistic ter`, `buckets`) on 2,000 pairs and `eval_news` (`evaluate`)
on 1,000. JSON reports are hashed with `manifest.timestamp` removed.

    python3 scripts/bench_round_trip.py --tree parent=<commit>:<parent checkout>/src \\
        --tree change=<commit>:src --seeds 3,4,5 --sizes 8000,40000,120000 --out BENCH_11.json

A tree is `label=commit:src_dir`, where `src_dir` is the `src` directory
of a checkout; the commit is recorded as given. Before the first timed
child, each tree's `src` and `perfbench` directories are byte-compiled
(`compileall`). Under `PYTHONDONTWRITEBYTECODE=1` a fresh interpreter
never writes what it compiles, so a stale or missing `__pycache__` would
be compiled again in every child, and read as a `setup_s` or wall-time
change.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAPER_TRIPLETS = 161_413
PAPER_HELDOUT = 10_000  # dev and test size each at paper scale
# One command in a fresh interpreter: apekit.cli.main(argv), then its
# exit code, wall time and peak RSS (KiB on Linux) as one JSON line.
CHILD = (
    "import json, resource, sys, time\n"
    "start = time.perf_counter()\n"
    "from apekit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "wall = time.perf_counter() - start\n"
    "print(json.dumps({'exit': code, 'wall_s': wall,\n"
    "                  'peak_rss_mb': resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))\n"
)
# perfbench/generate.py in a child: <function> followed by its arguments.
GENERATE = (
    "import sys\n"
    "from pathlib import Path\n"
    f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
    "import generate\n"
    "name, *args = sys.argv[1:]\n"
    "getattr(generate, name)(*(Path(a) if '/' in a else int(a) for a in args))\n"
)
# perfbench's eval pairs in a child: <out_dir> <seed> <spec name in perfbench/workloads.py> <n>.
EVAL_INPUTS = (
    "import sys\n"
    "from pathlib import Path\n"
    f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
    "import generate, workloads\n"
    "out, seed, spec, n = sys.argv[1:]\n"
    "generate.write_eval_inputs(Path(out), int(seed), **dict(getattr(workloads, spec), n=int(n)))\n"
)
# A workload's commands in a child: <workload name> <seed>; prints perfbench's plan_json of them.
PLAN = (
    "import sys\n"
    f"sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
    "import workloads\n"
    "name, seed = sys.argv[1:]\n"
    "print(workloads.plan_json(workloads.WORKLOADS[name].commands(int(seed))))\n"
)
# (workload, its spec name in perfbench/workloads.py, pairs): the eval workloads at the north star's test-set sizes.
EVAL_SETS = [("eval_subtitle", "SUBTITLE_PAIRS", 2000), ("eval_news", "NEWS_PAIRS", 1000)]


def _generate(*args) -> None:
    subprocess.run([sys.executable, "-c", GENERATE, *map(str, args)], check=True)


def _plan(workload: str, seed: int) -> list:
    """The benchmark's commands of `workload`, each a {"name", "argv", "outputs"} dict."""
    proc = subprocess.run([sys.executable, "-c", PLAN, workload, str(seed)], check=True, capture_output=True,
                          text=True)
    return json.loads(proc.stdout)


def _sha256(path: Path) -> str:
    with open(path, "rb") as handle:  # in chunks: a whole file read here would raise every later child's ru_maxrss
        return hashlib.file_digest(handle, "sha256").hexdigest()


def _compile(src: Path) -> None:
    """Byte-compile the `src` and `perfbench` directories of the checkout that holds `src`."""
    for directory in (src, src.resolve().parent / "perfbench"):
        if directory.is_dir() and not compileall.compile_dir(directory, quiet=1):
            raise RuntimeError(f"could not byte-compile {directory}")


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((src / "apekit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _run(src: Path, work: Path, argv: list) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=work, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["exit"] != 0:
        raise RuntimeError(f"{argv[0]} exited with {result['exit']}:\n{proc.stdout[-2000:]}")
    return {"wall_s": round(result["wall_s"], 3), "peak_rss_mb": round(result["peak_rss_mb"], 2)}


def _output_digest(path: Path) -> str:
    """Digest of a written file; of a JSON report without its manifest timestamp, the one field allowed to differ."""
    if path.suffix != ".json":
        return _sha256(path)
    report = json.loads(path.read_text(encoding="utf-8"))
    del report["manifest"]["timestamp"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def _commands(src: Path, work: Path, seed: int, commands: list) -> dict:
    """Run a workload's `commands` in `work`; return each command's figures and output digests.

    What an earlier run wrote is removed first. The decoded file that
    `postprocess` reads is made once, from the parts `preprocess` cleaned.
    """
    outputs = [name for command in commands for name in command["outputs"]]
    for directory in {Path(name).parts[0] for name in outputs}:
        shutil.rmtree(work / directory, ignore_errors=True)
    decoded = work / "in" / "decoded.txt"
    runs = {}
    for command in commands:
        if command["name"] == "postprocess" and not decoded.exists():
            _generate("write_decoded", work / "pre" / "cleaned.jsonl", decoded, seed)
        runs[command["name"]] = _run(src, work, command["argv"])
    return {"commands": runs, "output_sha256": {name: _output_digest(work / name) for name in outputs}}


def _round_trip(src: Path, work: Path, seed: int, commands: list) -> dict:
    """The `build` commands' figures and output digests, and the train split's triplet count."""
    result = _commands(src, work, seed, commands)
    with open(work / "filtered" / "train.jsonl", "rb") as train:
        result["train_triplets"] = sum(1 for _ in train)
    return result


def _alternating(trees, repeats: int, base: Path, run) -> dict:
    """{label: [run(src, work), ...]}: `repeats` runs per tree, each tree in
    its own copy of `base/in`, the trees' order alternating per repetition."""
    runs = {label: [] for label, _, _ in trees}
    for repeat in range(repeats):
        for label, _, src in (trees if repeat % 2 == 0 else trees[::-1]):
            work = base / label
            if not (work / "in").exists():
                shutil.copytree(base / "in", work / "in")
            runs[label].append(run(src, work))
            print(f"{base.name} {label} {json.dumps(runs[label][-1]['commands'])}", file=sys.stderr, flush=True)
    return runs


def _identical(runs: dict, key: str) -> bool:
    """Whether every run of every tree holds the same digests under `key`."""
    return len({json.dumps(run[key], sort_keys=True) for label_runs in runs.values() for run in label_runs}) == 1


def _perfbench(src: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` run of the checkout that holds `src`.

    Returns its end-to-end metrics, and the raw throughput and calibration
    time that `items_per_norm_s` is the product of, so a change in it can
    be told apart from a change in the calibration kernel's speed.
    """
    run = src.resolve().parent / "perfbench" / "run.py"
    proc = subprocess.run([sys.executable, str(run), "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"], capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{run} {workload} seed {seed} failed:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {name: round(m["value"], 4) for name, m in result["metrics"].items()}
    for line in proc.stdout.splitlines():
        words = line.split()
        if len(words) == 4 and words[0] == workload and words[1] in ("items_per_s", "calibration_ms"):
            metrics[words[1]] = round(float(words[2]), 4)
    return {"seed": seed, "failed": result["failed"], "attempted": result["attempted"], **metrics}


def _benchmark(trees, workloads, seeds, seconds) -> dict:
    out = {}
    for workload in workloads:
        runs = {label: [] for label, _, _ in trees}
        for k, seed in enumerate(seeds):
            for label, _, src in (trees if k % 2 == 0 else trees[::-1]):
                runs[label].append(_perfbench(src, workload, seed, seconds))
                print(f"{workload} {label} {json.dumps(runs[label][-1])}", file=sys.stderr, flush=True)
        medians = {label: {name: statistics.median(run[name] for run in label_runs)
                           for name in ("setup_s", "items_per_norm_s", "peak_rss_mb")}
                   for label, label_runs in runs.items()}
        out[workload] = {"runs": runs, "medians": medians}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", required=True, help="label=commit:src_dir")
    parser.add_argument("--sizes", default="8000,40000,120000",
                        help="comma-separated input triplet counts; none skips the round trip")
    parser.add_argument("--workloads", default="build,eval_subtitle,eval_news")
    parser.add_argument("--seeds", default="", help="comma-separated benchmark seeds; none skips the benchmark")
    parser.add_argument("--seconds", type=float, default=32.0, help="benchmark run length")
    parser.add_argument("--seed", type=int, default=1, help="seed of the round-trip and eval inputs")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--work", default=".bench_work/round_trip")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    trees = []
    for spec in args.tree:
        label, _, rest = spec.partition("=")
        commit, _, src = rest.rpartition(":")
        trees.append((label, commit, Path(src)))
        _compile(Path(src))
    result = {
        "stamp": {
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)),
            "trees": {label: {"git_commit": commit, "source_sha256": _source_digest(src)}
                      for label, commit, src in trees},
        },
        "benchmark": {"seconds": args.seconds, "workloads": {}},
        "seed": args.seed,
        "sizes": [],
    }
    if args.seeds:
        result["benchmark"]["workloads"] = _benchmark(trees, args.workloads.split(","),
                                                      [int(s) for s in args.seeds.split(",")], args.seconds)
    build = _plan("build", args.seed)
    for n in (map(int, args.sizes.split(",")) if args.sizes else ()):
        heldout = round(n * PAPER_HELDOUT / PAPER_TRIPLETS)
        base = Path(args.work) / str(n)
        shutil.rmtree(base, ignore_errors=True)
        _generate("write_build_inputs", base / "in", args.seed, n, heldout, heldout)
        runs = _alternating(trees, args.repeats, base, lambda src, work: _round_trip(src, work, args.seed, build))
        train = {run.pop("train_triplets") for label_runs in runs.values() for run in label_runs}
        result["sizes"].append({"input_triplets": n, "heldout_each": heldout, "runs": runs,
                                "train_triplets": train.pop(), "outputs_identical": _identical(runs, "output_sha256")})
        shutil.rmtree(base, ignore_errors=True)
    result["eval"] = []
    for workload, spec, n in EVAL_SETS:
        commands = _plan(workload, args.seed)
        base = Path(args.work) / "eval" / spec
        shutil.rmtree(base, ignore_errors=True)
        subprocess.run([sys.executable, "-c", EVAL_INPUTS, str(base / "in"), str(args.seed), spec, str(n)],
                       check=True)
        runs = _alternating(trees, args.repeats, base,
                            lambda src, work: _commands(src, work, args.seed, commands))
        result["eval"].append({"workload": workload, "spec": spec, "pairs": n, "runs": runs,
                               "reports_identical": _identical(runs, "output_sha256")})
        shutil.rmtree(base, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
