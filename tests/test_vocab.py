import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alignrag.vocab import (
    _TOKEN_RE,
    BOS_ID,
    EOS_ID,
    N_RESERVED,
    PAD_ID,
    UNK_ID,
    Vocabulary,
    tokenize,
)


class TestTokenize:
    def test_lowercases_and_splits_on_punctuation(self):
        assert tokenize("Hello, World!") == ["hello", "world"]

    def test_underscore_is_a_separator(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_digits_kept(self):
        assert tokenize("route 66") == ["route", "66"]

    def test_empty_and_punctuation_only(self):
        assert tokenize("") == []
        assert tokenize("!!! ...") == []

    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("Zürich—São Paulo", ["zürich", "são", "paulo"]),
            ("ＡＢＣ１２ x", ["ａｂｃ１２", "x"]),
            ("ΟΔΟΣ ΟΔΟΣ.", ["οδος", "οδος"]),
            ("İstanbul", ["i", "stanbul"]),
            ("x\xa0y", ["x", "y"]),
            ("²³ ½ Ⅻ", ["²³", "½", "ⅻ"]),
        ],
    )
    def test_non_ascii(self, text, tokens):
        assert tokenize(text) == tokens

    def test_each_ascii_character_between_letters(self):
        for code in range(128):
            text = "a" + chr(code) + "b"
            assert tokenize(text) == _TOKEN_RE.findall(text.lower()), code

    @given(st.text())
    @settings(max_examples=500)
    def test_matches_the_regex(self, text):
        assert tokenize(text) == _TOKEN_RE.findall(text.lower())

    @given(st.text(st.characters(max_codepoint=127)))
    @settings(max_examples=500)
    def test_matches_the_regex_on_ascii(self, text):
        assert tokenize(text) == _TOKEN_RE.findall(text.lower())


class TestReservedIds:
    def test_values(self):
        assert (PAD_ID, BOS_ID, EOS_ID, UNK_ID) == (0, 1, 2, 3)
        assert N_RESERVED == 4

    def test_reserved_names(self, tiny_vocab):
        assert [tiny_vocab.id_to_token(i) for i in range(4)] == [
            "<pad>",
            "<bos>",
            "<eos>",
            "<unk>",
        ]


class TestVocabulary:
    def test_from_texts_sorted_unique(self):
        v = Vocabulary.from_texts(["b a", "a c", "C b"])
        assert v.tokens == ["a", "b", "c"]

    def test_size_accounts_for_reserved_and_buckets(self, tiny_vocab):
        assert tiny_vocab.size == 4 + 5 + 8
        assert tiny_vocab.n_content == 5

    def test_content_ids_follow_reserved(self, tiny_vocab):
        assert tiny_vocab.token_id("alpha") == 4
        assert tiny_vocab.token_id("echo") == 8

    def test_encode_decode_round_trip(self, tiny_vocab):
        ids = tiny_vocab.encode("alpha bravo delta")
        assert tiny_vocab.decode(ids) == "alpha bravo delta"

    def test_decode_skips_specials_by_default(self, tiny_vocab):
        ids = [BOS_ID, tiny_vocab.token_id("alpha"), EOS_ID]
        assert tiny_vocab.decode(ids) == "alpha"
        assert tiny_vocab.decode(ids, skip_special=False) == "<bos> alpha <eos>"

    def test_oov_hashes_into_bucket_range(self, tiny_vocab):
        tid = tiny_vocab.token_id("zebra")
        assert 4 + 5 <= tid < tiny_vocab.size

    def test_oov_hash_is_stable(self, tiny_vocab):
        other = Vocabulary(["alpha", "bravo", "charlie", "delta", "echo"], hash_buckets=8)
        for token in ("zebra", "quux", "xyzzy"):
            assert tiny_vocab.token_id(token) == other.token_id(token)

    @pytest.mark.parametrize(
        "text", ["Alpha zebra, bravo-quux echo alpha", "zebra quux xyzzy", ""]
    )
    def test_encode_is_token_id_of_each_token(self, tiny_vocab, text):
        assert tiny_vocab.encode(text) == [tiny_vocab.token_id(t) for t in tokenize(text)]

    def test_encode_is_total(self, tiny_vocab):
        ids = tiny_vocab.encode("alpha zebra bravo")
        assert len(ids) == 3
        assert all(0 <= i < tiny_vocab.size for i in ids)

    def test_bucket_token_rendering(self, tiny_vocab):
        tid = tiny_vocab.token_id("zebra")
        assert tiny_vocab.id_to_token(tid).startswith("<unk")

    def test_id_out_of_range(self, tiny_vocab):
        with pytest.raises(ValueError):
            tiny_vocab.id_to_token(tiny_vocab.size)
        with pytest.raises(ValueError):
            tiny_vocab.id_to_token(-1)

    def test_duplicate_tokens_rejected(self):
        with pytest.raises(ValueError):
            Vocabulary(["a", "a"])

    def test_hash_buckets_must_be_positive(self):
        with pytest.raises(ValueError):
            Vocabulary(["a"], hash_buckets=0)
