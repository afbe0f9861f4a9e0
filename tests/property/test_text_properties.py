"""Property-based tests for the text substrate."""

import re
import string

from hypothesis import example, given, settings, strategies as st

from repro.text.lemmatizer import Lemmatizer
from repro.text.normalize import (
    UNICODE_FRACTIONS,
    fold_unicode_fractions,
    normalize_phrase,
    parse_quantity,
)
from repro.text.tokenizer import tokenize, tokenize_with_spans
from repro.text.vocab import Vocabulary

_lemmatizer = Lemmatizer()

#: Text that looks like recipe prose: words, digits, punctuation and spaces.
recipe_text = st.text(
    alphabet=string.ascii_letters + string.digits + " ,()./-½¾",
    max_size=60,
)

word = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12)

#: ASCII, every unicode fraction, and non-ASCII digits (``\d`` matches them).
fraction_text = st.text(
    alphabet=string.printable + "".join(UNICODE_FRACTIONS) + "٣५߃",
    max_size=40,
)


def _reference_fold_unicode_fractions(text: str) -> str:
    """The original fold, kept verbatim: one fresh ``re.sub`` per fraction."""
    for char, ascii_form in UNICODE_FRACTIONS.items():
        text = re.sub(rf"(?<=\d){re.escape(char)}", f" {ascii_form}", text)
        text = text.replace(char, ascii_form)
    return text


class TestTokenizerProperties:
    @given(recipe_text)
    @settings(max_examples=200)
    def test_spans_always_cover_their_token_text(self, text):
        for token in tokenize_with_spans(text):
            assert 0 <= token.start < token.end <= len(text)

    @given(recipe_text)
    @settings(max_examples=200)
    def test_spans_are_strictly_increasing(self, text):
        tokens = tokenize_with_spans(text)
        for left, right in zip(tokens, tokens[1:]):
            assert left.end <= right.start

    @given(recipe_text)
    @settings(max_examples=200)
    def test_tokens_contain_no_whitespace_except_mixed_fractions(self, text):
        for token in tokenize(text):
            if " " in token:
                # only mixed fractions ("1 1/2") may contain a space
                assert "/" in token

    @given(recipe_text)
    @settings(max_examples=200)
    def test_tokenization_is_idempotent_on_joined_output(self, text):
        once = tokenize(text)
        again = tokenize(" ".join(once))
        assert again == once


class TestNormalizeProperties:
    @given(recipe_text)
    @settings(max_examples=150)
    def test_normalize_phrase_is_idempotent(self, text):
        normalized = normalize_phrase(text)
        assert normalize_phrase(normalized) == normalized

    @given(recipe_text)
    @settings(max_examples=150)
    def test_fold_unicode_fractions_removes_all_unicode_fractions(self, text):
        folded = fold_unicode_fractions(text)
        assert "½" not in folded and "¾" not in folded

    @given(fraction_text)
    @settings(max_examples=300)
    @example("¼½")
    @example("½¼")
    @example("1½")
    @example("٣½")
    def test_fold_unicode_fractions_equals_the_reference_loop(self, text):
        assert fold_unicode_fractions(text) == _reference_fold_unicode_fractions(text)

    def test_fold_order_is_pinned(self):
        assert fold_unicode_fractions("¼½") == "1/4 1/2"
        assert fold_unicode_fractions("½¼") == "1/21/4"
        assert fold_unicode_fractions("1½") == "1 1/2"
        assert fold_unicode_fractions("٣½") == "٣ 1/2"

    @given(fraction_text)
    @settings(max_examples=150)
    def test_memoized_normalize_phrase_equals_the_undecorated_function(self, text):
        assert normalize_phrase(text) == normalize_phrase.__wrapped__(text)
        assert normalize_phrase(text) == normalize_phrase.__wrapped__(text)  # hit

    @given(st.integers(min_value=0, max_value=500))
    def test_parse_quantity_parses_integers(self, value):
        assert parse_quantity(str(value)) == float(value)

    @given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=30))
    def test_parse_quantity_parses_fractions(self, numerator, denominator):
        value = parse_quantity(f"{numerator}/{denominator}")
        assert value is not None
        assert abs(value - numerator / denominator) < 1e-9


class TestLemmatizerProperties:
    @given(word)
    @settings(max_examples=300)
    def test_noun_lemmatization_is_idempotent(self, token):
        once = _lemmatizer.lemmatize(token)
        assert _lemmatizer.lemmatize(once) == once

    @given(word)
    @settings(max_examples=300)
    def test_lemma_is_never_much_longer_than_the_word(self, token):
        # Irregular-plural exceptions ("mice" -> "mouse") may add a character;
        # regular suffix stripping never grows the token by more than that.
        assert len(_lemmatizer.lemmatize(token)) <= len(token) + 2

    @given(word)
    @settings(max_examples=300)
    def test_lemmas_are_lowercase(self, token):
        lemma = _lemmatizer.lemmatize(token.upper())
        assert lemma == lemma.lower()


class TestVocabularyProperties:
    @given(st.lists(word, max_size=40))
    def test_indices_are_dense_and_consistent(self, symbols):
        vocab = Vocabulary(symbols)
        assert len(vocab) == len(set(symbols))
        for symbol in symbols:
            assert vocab.symbol(vocab.index(symbol)) == symbol

    @given(st.lists(word, min_size=1, max_size=40))
    def test_roundtrip_through_dict(self, symbols):
        vocab = Vocabulary(symbols)
        assert Vocabulary.from_dict(vocab.to_dict()) == vocab
