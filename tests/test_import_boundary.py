"""Only the BLEU and ChrF n-gram counts, TER's shift search and the bootstrap load numpy.

Each command runs in a fresh interpreter through apekit.cli.main, which
then reports whether numpy is in sys.modules. The corpus-build and
human-evaluation commands must never load it, and neither may `buckets`
when no sentence pair needs a shift search. `evaluate` always loads it
for its BLEU and ChrF statistics; a metric command loads it once it
reaches a shift search or a bootstrap, and its report still matches
metric_golden/.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import apekit
import make_metric_golden
from golden import without_timestamp

DATA = Path(__file__).parent / "data"
SRC = Path(apekit.__file__).resolve().parents[1]
CHILD = (
    "import json, sys\n"
    "from apekit.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(json.dumps({'exit': code, 'numpy': 'numpy' in sys.modules}))\n"
)


def _loads_numpy(work: Path, argv: list) -> bool:
    """Run one command in `work` in a fresh interpreter; whether it loaded numpy."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], cwd=work, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit"] == 0, proc.stdout + proc.stderr
    return result["numpy"]


def _work(tmp_path: Path, golden: str) -> Path:
    shutil.copytree(DATA / golden / "in", tmp_path / "in")
    return tmp_path


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("report_golden", ["filter", "--in", "in/corpus.jsonl", "--config", "in/filter_config.json",
                           "--out-dir", "out"]),
        ("report_golden", ["stats", "--in", "in/corpus.jsonl", "--out", "out/stats.json"]),
        ("report_golden", ["ablate", "curve", "--scores", "in/scores.csv", "--sizes", "100,200,400",
                           "--replicates", "2", "--metric", "bleu", "--out", "out/ablate.json"]),
        ("report_golden", ["ablate", "draw", "--in", "in/corpus.jsonl", "--sizes", "4,8,16", "--replicates", "2",
                           "--emit-samples", "out/samples", "--out", "out/ablate.json"]),
        ("human_eval_golden", ["agreement", "--csv", "in/h2.csv", "--out", "out/agreement.json"]),
        ("human_eval_golden", ["adequacy", "--csv", "in/h2.csv", "--out", "out/adequacy.json"]),
        ("metric_golden", ["buckets", "--baseline", "in/ref.txt", "--ape", "in/ref.txt", "--ref", "in/ref.txt",
                           "--out", "out/buckets.json"]),
    ],
    ids=["filter", "stats", "ablate-scores", "ablate-in", "agreement", "adequacy", "buckets-without-a-shift"],
)
def test_command_never_loads_numpy(tmp_path, golden, argv):
    assert not _loads_numpy(_work(tmp_path, golden), argv)


def test_corpus_round_trip_never_loads_numpy(tmp_path):
    work = _work(tmp_path, "build_cli_golden")
    assert not _loads_numpy(work, ["preprocess", "--in", "in/corpus.jsonl", "--out-dir", "pre"])
    cleaned = (work / "pre" / "cleaned.jsonl").read_text(encoding="utf-8").splitlines()
    (work / "decoded.txt").write_text("".join(json.loads(line)["mt"] + "\n" for line in cleaned), encoding="utf-8")
    assert not _loads_numpy(work, ["postprocess", "--outputs", "decoded.txt", "--changelog", "pre/changelog.jsonl",
                                   "--out", "restored.txt", "--orig", "in/corpus.jsonl"])
    golden = DATA / "build_cli_golden" / "mt_unedited_orig_restored.txt"
    assert (work / "restored.txt").read_bytes() == golden.read_bytes()


def test_evaluate_loads_numpy_for_bleu_and_chrf(tmp_path):
    work = _work(tmp_path, "metric_golden")
    assert _loads_numpy(work, ["evaluate", "--hyp", "in/ref.txt", "--ref", "in/ref.txt", "--out", "out/same.json"])
    report = json.loads((work / "out" / "same.json").read_text(encoding="utf-8"))
    assert report["bleu"]["score"] == 100.0
    assert report["chrf"] == 100.0
    assert report["ter"]["score"] == 0.0


def test_shift_search_loads_numpy_and_matches_golden(tmp_path):
    work = _work(tmp_path, "metric_golden")
    assert _loads_numpy(work, ["evaluate", "--hyp", "in/ape.txt", "--ref", "in/ref.txt", "--per-sentence",
                               "--out", "out/evaluate.json"])
    report = json.loads((work / "out" / "evaluate.json").read_text(encoding="utf-8"))
    golden = json.loads((DATA / "metric_golden" / "evaluate.json").read_text(encoding="utf-8"))
    assert report["ter"]["shifts"] > 0
    for key in ("bleu", "chrf", "ter", "per_sentence"):
        assert report[key] == golden[key]


def test_bootstrap_loads_numpy_and_matches_golden(tmp_path):
    name, argv = next(command for command in make_metric_golden.COMMANDS if command[0] == "significance_bleu.json")
    work = _work(tmp_path, "metric_golden")
    assert _loads_numpy(work, argv + ["--out", f"out/{name}"])
    report = without_timestamp((work / "out" / name).read_text(encoding="utf-8"))
    assert report == (DATA / "metric_golden" / name).read_text(encoding="utf-8")
