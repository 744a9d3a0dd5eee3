"""Generate human_eval_golden/: seeded adequacy CSVs and the reports on them.

The reports pin the exact output of the human-evaluation subcommands
(agreement and adequacy) so changes to the kappa and adequacy code can be
checked for byte-identical reports and console lines. Each report is
stored with its ``manifest.timestamp`` removed, the one field allowed to
differ between runs; next to them, one console file per CSV holds each
command's exit code, stdout and stderr. Commands run in the ``human_eval_golden`` directory on the
relative paths ``in/*.csv``, so the manifest's input keys are stable.
Regenerate only when a change of report contents is intended:

    PYTHONPATH=src python tests/data/make_human_eval_golden.py

Every CSV has 2-5 annotators and 1-40 items. Each annotator skips some
items, so not every item is shared, but scores all three systems of every
item it rates. Scores are 1-5; in a per-file share of an annotator's
items one or two of the three scores are "can't decide" (``X``). Rows come
in shuffled order, so the kappa marginals are seen in an order the item
ids do not dictate. Some files have a header, upper-case system names or
padded cells, which the reader accepts. A file whose shared items all
hold an ``X`` makes agreement exit 2; its console file records that.
"""

from __future__ import annotations

import random
from pathlib import Path

import golden

SEED = 1960
OUT = Path(__file__).with_name("human_eval_golden")
SYSTEMS = ("nmt", "ape", "human")
# (annotators, items, share of rated items holding an X): one CSV each.
SPECS = [
    (2, 1, 0.0),
    (2, 12, 0.05),
    (3, 25, 0.0),
    (3, 40, 0.3),
    (4, 18, 0.05),
    (4, 40, 0.0),
    (5, 30, 0.05),
    (5, 40, 0.3),
    (3, 4, 0.9),
]


def csv_text(rng: random.Random, n_annotators: int, n_items: int, x_share: float) -> str:
    """One CSV: shuffled rows, every rated item scored on all three systems."""
    annotators = [f"ann{k}" for k in range(n_annotators)]
    items = [f"item{k:02d}" for k in rng.sample(range(100), n_items)]
    # Annotators lean towards their own part of the scale, so kappa varies.
    lean = {a: rng.randint(1, 5) for a in annotators}
    rows = []
    for item in items:
        truth = rng.randint(1, 5)
        # The first item is rated by everyone, so some item is shared.
        raters = annotators if item == items[0] else [a for a in annotators if rng.random() > 0.2]
        for annotator in raters:
            undecided = rng.sample(SYSTEMS, rng.randint(1, 2)) if rng.random() < x_share else ()
            for system in SYSTEMS:
                score = rng.choice((truth, lean[annotator], rng.randint(1, 5)))
                rows.append([annotator, item, system, "X" if system in undecided else str(score)])
    rng.shuffle(rows)
    upper, padded = rng.random() < 0.3, rng.random() < 0.3
    lines = ["annotator_id,item_id,system,score"] if rng.random() < 0.6 else []
    for annotator, item, system, score in rows:
        if upper:
            system = system.upper()
        cells = [annotator, item, system, score]
        lines.append(",".join(f" {c} " for c in cells) if padded else ",".join(cells))
    return "".join(line + "\n" for line in lines)


def write_inputs(directory: Path) -> None:
    rng = random.Random(SEED)
    for k, spec in enumerate(SPECS):
        golden.write(directory / "in" / f"h{k}.csv", csv_text(rng, *spec))


def run_commands(directory: Path) -> dict:
    """Run both commands on every CSV in `directory`.

    Returns {file name: text}: each written report without its timestamp,
    and per CSV a console file with each command's exit code, stdout and
    stderr, agreement first.
    """
    with golden.cd(directory):
        outputs = {}
        for k in range(len(SPECS)):
            console = []
            for command in ("agreement", "adequacy"):
                out = Path("out") / f"h{k}_{command}.json"
                if golden.run(console, [command, "--csv", f"in/h{k}.csv", "--out", str(out)], label=command) == 0:
                    outputs[out.name] = golden.without_timestamp(out.read_text(encoding="utf-8"))
                    out.unlink()
            outputs[f"h{k}_console.txt"] = "".join(console)
        if Path("out").exists():
            Path("out").rmdir()
        return outputs


if __name__ == "__main__":
    golden.main(OUT, write_inputs, run_commands)
