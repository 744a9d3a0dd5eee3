import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apekit.tokenizer import TokenizerConfig, tokenize


def test_whitespace_scheme():
    assert tokenize("the  cat\tsat") == ["the", "cat", "sat"]


def test_punct_split():
    config = TokenizerConfig(scheme="punct_split")
    assert tokenize("Hello, world", config) == ["Hello", ",", "world"]


def test_empty_text():
    assert tokenize("") == []


def test_lowercase_applied_last():
    config = TokenizerConfig(scheme="punct_split", lowercase=True)
    assert tokenize("Hello, World", config) == ["hello", ",", "world"]


def test_consecutive_punctuation_splits_each_char():
    config = TokenizerConfig(scheme="punct_split")
    assert tokenize("wait...", config) == ["wait", ".", ".", "."]


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        TokenizerConfig(scheme="bpe")


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet=st.sampled_from(list("abcXYZ,.!")), min_size=1, max_size=6), max_size=10))
def test_join_then_retokenize_is_identity(tokens):
    # On already-separated text, joining and re-tokenizing changes nothing.
    config = TokenizerConfig(scheme="punct_split")
    separated = [t for token in tokens for t in tokenize(token, config)]
    assert tokenize(" ".join(separated), config) == separated


def reference_punct_split(text):
    """The original per-word loop of the punct_split scheme, kept as the reference."""
    tokens = []
    for word in text.split():
        current = []
        for ch in word:
            if not ch.isalnum() and not ch.isspace():
                if current:
                    tokens.append("".join(current))
                    current = []
                tokens.append(ch)
            else:
                current.append(ch)
        if current:
            tokens.append("".join(current))
    return tokens


PUNCT_SPLIT = TokenizerConfig(scheme="punct_split")
TRICKY = list("aZ09_-.,!¿«»„“ \t\n\r\x0b\x0c\x1c\x1f\x85\xa0\u2028\u2029\u2003\u3000\u200bßİǅ²½٣ⅻ〇\U0001f600")


@settings(max_examples=500, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet=st.sampled_from(TRICKY))))
def test_punct_split_matches_reference_loop(text):
    assert tokenize(text, PUNCT_SPLIT) == reference_punct_split(text)


def test_punct_split_matches_reference_loop_on_every_code_point():
    # Between two letters, a code point joins them, splits off, or separates
    # them: the three classes the scheme tells apart.
    text = " ".join(f"a{chr(code)}a" for code in range(0x110000))
    assert tokenize(text, PUNCT_SPLIT) == reference_punct_split(text)
