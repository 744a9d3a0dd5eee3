"""Generate metric_golden/: seeded line files and the metric reports on them.

The reports pin the exact output of the metric subcommands (evaluate,
significance and buckets) so changes to the metric and bootstrap code
can be checked for byte-identical reports. Each report is stored with
its ``manifest.timestamp`` removed, the one field allowed to differ
between runs. Commands run in the ``metric_golden`` directory on the
relative paths ``in/*.txt``, so the manifest's input keys are stable.
Regenerate only when a change of report contents is intended:

    PYTHONPATH=src python tests/data/make_metric_golden.py

The pairs are subtitle-like: a reference of 1-20 tokens with casing and
punctuation, an MT line with substitutions, insertions, deletions, block
moves and punctuation noise, and an APE line that either keeps the MT,
fixes part of it, or is empty.
"""

from __future__ import annotations

import random
from pathlib import Path

import golden

SEED = 2004
N_PAIRS = 40
OUT = Path(__file__).with_name("metric_golden")
WORDS = ("Night falls over the quiet harbour and ships wait for morning light while "
         "gulls circle above old stone walls , . ! ? - that we never saw again").split()

# (report file, argv). --out is relative to the working directory too.
COMMANDS = [
    ("evaluate.json",
     ["evaluate", "--hyp", "in/ape.txt", "--ref", "in/ref.txt", "--hyp-b", "in/mt.txt",
      "--per-sentence", "--seed", "3", "--n-samples", "500"]),
    ("evaluate_no_ter_normalize.json",
     ["evaluate", "--hyp", "in/ape.txt", "--ref", "in/ref.txt", "--hyp-b", "in/mt.txt",
      "--per-sentence", "--no-ter-normalize", "--seed", "4", "--n-samples", "500"]),
    ("significance_bleu.json",
     ["significance", "--hyp-a", "in/ape.txt", "--hyp-b", "in/mt.txt", "--ref", "in/ref.txt",
      "--statistic", "bleu", "--seed", "5"]),
    ("significance_ter.json",
     ["significance", "--hyp-a", "in/ape.txt", "--hyp-b", "in/mt.txt", "--ref", "in/ref.txt",
      "--statistic", "ter", "--seed", "6"]),
    ("significance_sentence_bleu.json",
     ["significance", "--hyp-a", "in/ape.txt", "--hyp-b", "in/mt.txt", "--ref", "in/ref.txt",
      "--statistic", "sentence_bleu", "--seed", "7"]),
    ("buckets.json",
     ["buckets", "--baseline", "in/mt.txt", "--ape", "in/ape.txt", "--ref", "in/ref.txt"]),
]

def _mt_from(rng, ref):
    out = []
    for token in ref:
        roll = rng.random()
        if roll < 0.08:
            continue  # deletion
        if roll < 0.25:
            out.append(rng.choice(WORDS))  # substitution
        elif roll < 0.35:
            out.append(token.upper() if token.islower() else token.lower())  # casing only
        else:
            out.append(token)
        if rng.random() < 0.08:
            out.append(rng.choice(WORDS))  # insertion
    if len(out) > 3 and rng.random() < 0.3:
        size = rng.randint(1, 3)
        start = rng.randint(0, len(out) - size)
        block, rest = out[start:start + size], out[:start] + out[start + size:]
        dest = rng.randint(0, len(rest))
        out = rest[:dest] + block + rest[dest:]
    return out


def pairs():
    """Return aligned (mt, ape, ref) line lists, deterministically."""
    rng = random.Random(SEED)
    mt, ape, ref = [], [], []
    for _ in range(N_PAIRS):
        ref_tokens = rng.choices(WORDS, k=rng.randint(1, 20))
        mt_tokens = _mt_from(rng, ref_tokens)
        roll = rng.random()
        if roll < 0.4:
            ape_tokens = mt_tokens
        elif roll < 0.9:
            # Fix a prefix of the line: the APE system repaired part of it.
            cut = rng.randint(0, len(ref_tokens))
            ape_tokens = ref_tokens[:cut] + mt_tokens[cut:]
        else:
            ape_tokens = []
        mt.append(" ".join(mt_tokens))
        ape.append(" ".join(ape_tokens))
        ref.append(" ".join(ref_tokens))
    return mt, ape, ref


def write_inputs(directory: Path) -> None:
    for name, lines in zip(("mt", "ape", "ref"), pairs()):
        golden.write(directory / "in" / f"{name}.txt", "".join(line + "\n" for line in lines))


def run_commands(directory: Path) -> dict:
    """Run every command in `directory`; return {report name: text without timestamp}."""
    with golden.cd(directory):
        reports = {}
        for name, argv in COMMANDS:
            out = Path("out") / name
            console = []
            if golden.run(console, argv + ["--out", str(out)]) != 0:
                raise RuntimeError(console[0])
            reports[name] = golden.without_timestamp(out.read_text(encoding="utf-8"))
            out.unlink()
        Path("out").rmdir()
        return reports


if __name__ == "__main__":
    golden.main(OUT, write_inputs, run_commands)
