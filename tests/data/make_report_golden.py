"""Generate report_golden/: the filter, stats and ablate reports end to end.

The files pin the exact output of ``apekit filter``, ``apekit stats`` and
``apekit ablate`` on a small English/German corpus: each JSON report
without its ``manifest.timestamp`` (the one field allowed to differ
between runs), the filter splits, and one console file with each
command's exit code, stdout and stderr. Changes to how the CLI builds or
writes these reports can be checked against it for byte-identical
results. Commands run in the ``report_golden`` directory on
relative paths, so paths in messages and the manifest's input keys are
stable. Regenerate only when a change of outputs is intended:

    PYTHONPATH=src python tests/data/make_report_golden.py

The corpus plants one triplet for each filter stage to remove: a length
ratio outlier, an empty post-edit, a duplicate (src, mt) pair and an
English post-edit; others carry typographic quotes for normalization.
``filter`` runs with a config file, and again with ``--seed`` overriding
its seed. ``ablate`` runs once on the corpus, drawing samples whose
digests its report pins, and once on an external scores file.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import golden

OUT = Path(__file__).with_name("report_golden")

# (src, mt, pe): English source, German MT and post-edit.
TRIPLETS = [
    ("The weather was cold this morning.", "Das Wetter war heute Morgen kalt.",
     "Das Wetter war heute Morgen kalt."),
    ("She asked whether the train would be late.", "Sie fragte, ob der Zug spät sein würde.",
     "Sie fragte, ob der Zug Verspätung haben würde."),
    ("We bought bread at the market yesterday.", "Wir kauften gestern Brot auf dem Markt.",
     "Wir haben gestern Brot auf dem Markt gekauft."),
    ("The children are playing in the garden.", "Die Kinder spielen in dem Garten.",
     "Die Kinder spielen im Garten."),
    ("Please close the window before you leave.", "Bitte schließen das Fenster, bevor du gehst.",
     "Bitte schließ das Fenster, bevor du gehst."),
    ("My brother works in another city.", "Mein Bruder arbeitet in einer anderen Stadt.",
     "Mein Bruder arbeitet in einer anderen Stadt."),
    ("It was already dark when they arrived.", "Es war schon dunkel, wenn sie ankamen.",
     "Es war schon dunkel, als sie ankamen."),
    ("Would you like some more coffee?", "Möchtest du etwas mehr Kaffee?",
     "Möchtest du noch etwas Kaffee?"),
    ("The meeting starts earlier next week.", "Die Besprechung beginnt früher nächste Woche.",
     "Die Besprechung beginnt nächste Woche früher."),
    ("He could not find the keys to the car.", "Er konnte nicht die Schlüssel für das Auto finden.",
     "Er konnte die Autoschlüssel nicht finden."),
    ("There is nothing better than warm tea.", "Es gibt nichts besser als warmen Tee.",
     "Es gibt nichts Besseres als warmen Tee."),
    ("Their mother was reading a book.", "Ihre Mutter war lesend ein Buch.",
     "Ihre Mutter las ein Buch."),
    ("“Where is the station?” he asked.", "„Wo ist der Bahnhof?“, fragte er.",
     "„Wo ist der Bahnhof?“, fragte er."),
    ("The answer depends on the time we have.", "Die Antwort hängt ab von der Zeit, die wir haben.",
     "Die Antwort hängt von der Zeit ab, die wir haben."),
    ("The village by the lake is very small.", "Das Dorf am See ist sehr klein.",
     "Das Dorf am See ist sehr klein."),
    ("They will stay for dinner after work.", "Sie werden bleiben zum Abendessen nach der Arbeit.",
     "Sie bleiben nach der Arbeit zum Abendessen."),
    ("The shop is closed today.", "Das Geschäft ist heute geschlossen.",
     "Das Geschäft ist heute geschlossen."),
    ("Everyone agreed with the new plan.", "Alle waren einverstanden mit dem neuen Plan.",
     "Alle waren mit dem neuen Plan einverstanden."),
    ("The streets were still quiet.", "Die Straßen waren noch ruhig.",
     "Die Straßen waren noch still."),
    ("‘Nobody knew it,’ she said.", "‚Niemand wusste es‘, sagte sie.",
     "‚Niemand wusste es‘, sagte sie."),
    ("We have to leave for the station now.", "Wir müssen jetzt zum Bahnhof aufbrechen.",
     "Wir müssen jetzt zum Bahnhof aufbrechen."),
    ("The broken window is downstairs.", "Das kaputte Fenster ist unten.",
     "Das kaputte Fenster ist unten."),
    ("It rains outside again today.", "Es regnet draußen wieder heute.",
     "Es regnet heute wieder draußen."),
    ("She visits us during the holidays.", "Sie besucht uns während den Ferien.",
     "Sie besucht uns in den Ferien."),
    # Planted faults, one for each filter stage that removes triplets.
    ("Yes.", "Ja, das ist wirklich eine sehr gute und wichtige Frage.",
     "Ja, das ist wirklich eine sehr gute und wichtige Frage, die wir heute beantworten müssen."),
    ("Thank you very much.", "Vielen Dank.", ""),
    ("The shop is closed today.", "Das Geschäft ist heute geschlossen.", "Der Laden ist heute zu."),
    ("The garden is green in spring.", "Der Garten ist grün im Frühling.",
     "The garden is green in the spring."),
]
FILTER_CONFIG = {"t": 0.3, "dev_size": 3, "test_size": 3, "seed": 11}
SCORES = "size,replicate,value\n100,0,31.5\n100,1,32.25\n200,0,35.0\n200,1,34.5\n400,1,38.125\n400,0,37.75\n"


def write_inputs(directory: Path) -> None:
    """The corpus, the filter config and the external scores file."""
    rows = [
        json.dumps({"id": f"t{i:02d}", "src": s, "mt": m, "pe": p}, ensure_ascii=False) + "\n"
        for i, (s, m, p) in enumerate(TRIPLETS, 1)
    ]
    golden.write(directory / "in" / "corpus.jsonl", "".join(rows))
    golden.write(directory / "in" / "filter_config.json", json.dumps(FILTER_CONFIG) + "\n")
    golden.write(directory / "in" / "scores.csv", SCORES)


def run_commands(directory: Path) -> dict:
    """Run filter, stats and ablate in `directory`.

    Returns {file name: text}: each report without its timestamp, the
    filter splits, and console.txt with every command's exit code, stdout
    and stderr.
    """
    with golden.cd(directory):
        console = []
        outputs = {}
        filter_args = ["filter", "--in", "in/corpus.jsonl", "--config", "in/filter_config.json"]
        for name, extra in (("filter", []), ("filter_seed4", ["--seed", "4"])):
            golden.run(console, [*filter_args, "--out-dir", f"out/{name}", *extra])
            report = Path(f"out/{name}/filter_report.json").read_text(encoding="utf-8")
            outputs[f"{name}_report.json"] = golden.without_timestamp(report)
            for split in ("train", "dev", "test"):
                outputs[f"{name}_{split}.jsonl"] = Path(f"out/{name}/{split}.jsonl").read_text(encoding="utf-8")

        golden.run(console, ["stats", "--in", "in/corpus.jsonl", "--out", "out/stats.json"])
        golden.run(console, ["ablate", "draw", "--in", "in/corpus.jsonl", "--sizes", "4,8,16", "--replicates", "2",
                             "--seed", "3", "--emit-samples", "out/samples", "--out", "out/ablate_corpus.json"])
        golden.run(console, ["ablate", "curve", "--scores", "in/scores.csv", "--sizes", "100,200,400",
                             "--replicates", "2", "--metric", "bleu", "--out", "out/ablate_scores.json"])
        for name in ("stats.json", "ablate_corpus.json", "ablate_scores.json"):
            outputs[name] = golden.without_timestamp(Path("out", name).read_text(encoding="utf-8"))
        outputs["console.txt"] = "".join(console)
        shutil.rmtree("out")
        return outputs


if __name__ == "__main__":
    golden.main(OUT, write_inputs, run_commands)
