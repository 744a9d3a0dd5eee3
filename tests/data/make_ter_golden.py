"""Generate ter_golden.jsonl: seeded sentence pairs with their greedy TER.

The file pins the exact output of ``ter_sentence`` (score and shift ops)
so changes to the TER internals can be checked for bit-identical
results. It also pins the aligned edit ops of the shifted hypothesis,
which come from the test-side reference aligner ``oracles.align`` and
must add up to the score's edit counts. Regenerate only when a change of
TER results is intended:

    PYTHONPATH=src python tests/data/make_ter_golden.py

Pairs have references of 1-30 tokens and come in five kinds: tie-heavy
pairs over 2-3 token vocabularies, block moves, insertions/deletions/
substitutions, small-vocabulary block moves, and mixed-case punctuated
text under the normalizing tokenizer.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

from apekit.ter import ter_sentence
from apekit.tokenizer import TER_NORMALIZED_TOKENIZER, TokenizerConfig, tokenize

import golden

TESTS = str(Path(__file__).resolve().parents[1])
if TESTS not in sys.path:  # run as a script, oracles.py is not on the path yet
    sys.path.insert(0, TESTS)
from oracles import align, apply_shifts  # noqa: E402

SEED = 2009
OUT = Path(__file__).with_name("ter_golden.jsonl")
WS = TokenizerConfig(scheme="whitespace")
WORDS = ("the a cat dog sat on mat and then ran far away quickly home "
         "over under big small red blue").split()


def _block_move(rng, tokens):
    n = len(tokens)
    size = rng.randint(1, min(5, n - 1))
    start = rng.randint(0, n - size)
    block, rest = tokens[start:start + size], tokens[:start] + tokens[start + size:]
    dest = rng.randint(0, len(rest))
    return rest[:dest] + block + rest[dest:]


def _noise(rng, tokens, vocab, rate):
    out = []
    for token in tokens:
        roll = rng.random()
        if roll < rate / 3:
            continue  # deletion
        if roll < 2 * rate / 3:
            out.append(rng.choice(vocab))  # substitution (may keep the token)
        else:
            out.append(token)
        if rng.random() < rate / 3:
            out.append(rng.choice(vocab))  # insertion
    return out


def pairs():
    """Yield (kind, hyp, ref, tokenizer) tuples, deterministically."""
    rng = random.Random(SEED)
    for _ in range(60):
        vocab = ["a", "b", "c"][: rng.randint(2, 3)]
        ref = rng.choices(vocab, k=rng.randint(1, 12))
        hyp = rng.choices(vocab, k=rng.randint(0, 12))
        yield "tie", " ".join(hyp), " ".join(ref), WS
    for _ in range(40):
        ref = rng.choices(WORDS, k=rng.randint(2, 30))
        hyp = _block_move(rng, ref)
        if rng.random() < 0.5:
            hyp = _block_move(rng, hyp)
        if rng.random() < 0.5:
            hyp = _noise(rng, hyp, WORDS, 0.1)
        yield "block", " ".join(hyp), " ".join(ref), WS
    for _ in range(40):
        ref = rng.choices(WORDS, k=rng.randint(1, 30))
        hyp = _noise(rng, ref, WORDS, rng.choice((0.1, 0.2, 0.4)))
        yield "indel", " ".join(hyp), " ".join(ref), WS
    for _ in range(25):
        vocab = ["a", "b", "c", "d"][: rng.randint(2, 4)]
        ref = rng.choices(vocab, k=rng.randint(2, 20))
        hyp = _noise(rng, _block_move(rng, ref), vocab, 0.1)
        yield "small_block", " ".join(hyp), " ".join(ref), WS
    for _ in range(15):
        ref = rng.choices(WORDS, k=rng.randint(1, 20))
        hyp = _block_move(rng, ref) if len(ref) > 1 else list(ref)
        hyp = [w.capitalize() if rng.random() < 0.3 else w for w in hyp]
        hyp = [w + rng.choice(",.!") if rng.random() < 0.2 else w for w in hyp]
        yield "normalized", " ".join(hyp), " ".join(ref) + " .", TER_NORMALIZED_TOKENIZER


def record(kind, hyp, ref, tok) -> dict:
    score, shifts = ter_sentence(hyp, ref, tok)
    ops = align(apply_shifts(tokenize(hyp, tok), shifts), tokenize(ref, tok))
    return {
        "kind": kind,
        "hyp": hyp,
        "ref": ref,
        "tokenizer": {"scheme": tok.scheme, "lowercase": tok.lowercase},
        "score": score.to_dict(),
        "shifts": [[s.start, s.end, s.destination] for s in shifts],
        "ops": [list(op) for op in ops],
    }


if __name__ == "__main__":
    golden.write_jsonl(OUT, (record(*pair) for pair in pairs()))
