"""Test oracles: reference checks the toolkit's commands never run.

- ``ter_oracle``: an exhaustive desk-scale TER over bounded shift
  sequences, which sandwiches the greedy scorer:
  oracle cost <= greedy cost <= shift-free edit distance.
- ``replay``: replays an ``EditScript`` on the hypothesis tokens; a
  correct script yields the reference tokens.
- ``total_edits``: the numerator of a ``TerScore``.
- ``contains_artifacts``: the cleanliness scanner for preprocessed text.
- ``ConstantClassifier``: a language classifier that always gives one
  answer, a permissive stand-in for the n-gram classifier.
"""

from __future__ import annotations

from typing import List, Sequence

from apekit.segments import MUSIC_CHARS, TAG_RE
from apekit.ter import (
    EditScript,
    TerScore,
    _apply_shift,
    _bit_distance,
    _match_masks,
    _multiset_floor,
    _shift_grid,
)
from apekit.tokenizer import TER_NORMALIZED_TOKENIZER, TokenizerConfig, tokenize

ORACLE_MAX_TOKENS = 8
ORACLE_MAX_DEPTH = 3


def total_edits(score: TerScore) -> int:
    return score.insertions + score.deletions + score.substitutions + score.shifts


def replay(script: EditScript, hyp_tokens: Sequence[str]) -> List[str]:
    """Apply the script's shifts, then its aligned ops, to hyp_tokens."""
    tokens = list(hyp_tokens)
    for s in script.shifts:
        tokens = _apply_shift(tokens, s.start, s.end, s.destination)
    out: List[str] = []
    idx = 0
    for op in script.ops:
        if op.kind == "match":
            out.append(tokens[idx])
            idx += 1
        elif op.kind == "sub":
            out.append(op.ref_token)
            idx += 1
        elif op.kind == "ins":
            idx += 1
        elif op.kind == "del":
            out.append(op.ref_token)
        else:
            raise ValueError(f"unknown edit op kind {op.kind!r}")
    if idx != len(tokens):
        raise ValueError("edit script does not consume the hypothesis exactly")
    return out


def ter_oracle(
    hyp: str,
    ref: str,
    max_depth: int = ORACLE_MAX_DEPTH,
    tok: TokenizerConfig = TER_NORMALIZED_TOKENIZER,
) -> int:
    """True minimum of (shifts used + edit distance) over all shift
    sequences of length <= max_depth. Desk-scale only: refuses inputs
    longer than ORACLE_MAX_TOKENS tokens.

    Breadth-first over reachable token orderings with sound prunes: states
    are deduplicated at their first (shallowest) visit, and the search
    stops once depth + floor >= best, where floor is the multiset floor
    (shifts change neither the token multiset nor the length, so no
    ordering has an edit distance below it). The shifts tried are those
    of the greedy scorer's grid: a backward move it leaves out gives the
    same ordering as a forward move it keeps.
    """
    hyp_tokens = tuple(tokenize(hyp, tok))
    ref_tokens = tuple(tokenize(ref, tok))
    if not ref_tokens:
        raise ValueError("TER oracle needs a non-empty reference after tokenization")
    if len(hyp_tokens) > ORACLE_MAX_TOKENS or len(ref_tokens) > ORACLE_MAX_TOKENS:
        raise ValueError(f"oracle inputs must have at most {ORACLE_MAX_TOKENS} tokens")
    if not 0 <= max_depth <= ORACLE_MAX_DEPTH:
        raise ValueError(f"oracle depth bound must be in 0..{ORACLE_MAX_DEPTH}")

    masks, ref_len = _match_masks(ref_tokens), len(ref_tokens)
    best = _bit_distance(hyp_tokens, masks, ref_len)
    floor = _multiset_floor(hyp_tokens, ref_tokens)
    # A shift keeps the length, so every state has the same candidates.
    shifts = list(zip(*(axis.tolist() for axis in _shift_grid(len(hyp_tokens)))))

    visited = {hyp_tokens}
    frontier = [hyp_tokens]
    for depth in range(1, max_depth + 1):
        if depth + floor >= best:
            break
        next_frontier = []
        for state in frontier:
            for start, end, destination in shifts:
                candidate = tuple(_apply_shift(state, start, end, destination))
                if candidate in visited:
                    continue
                visited.add(candidate)
                cost = depth + _bit_distance(candidate, masks, ref_len)
                if cost < best:
                    best = cost
                    if best <= depth + floor:
                        return best
                next_frontier.append(candidate)
        frontier = next_frontier
    return best


def contains_artifacts(text: str) -> bool:
    """Scanner for the cleanliness invariant: no tags, notes, leading
    hyphen, or ``<br>`` (which is a tag too) may survive preprocessing."""
    if TAG_RE.search(text) or any(ch in text for ch in MUSIC_CHARS):
        return True
    return text.startswith("-")


class ConstantClassifier:
    """Always answers with the same code. Useful as a permissive oracle."""

    def __init__(self, code: str):
        self.code = code

    def classify(self, text: str) -> str:
        return self.code
