"""Tokenization and a hashed-bucket vocabulary.

The token alphabet is closed: known content tokens get dedicated ids and
everything else is hashed into a fixed range of bucket ids, so text -> ids
is a total function.
"""
from __future__ import annotations

import hashlib
import re

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
UNK_ID = 3
N_RESERVED = 4

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def tokenize(text: str) -> list[str]:
    """Lowercase and split on whitespace/punctuation boundaries."""
    return _TOKEN_RE.findall(text.lower())


def _stable_hash(token: str) -> int:
    digest = hashlib.md5(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


class Vocabulary:
    """Maps tokens to ids: 4 reserved ids, then content ids, then hash buckets."""

    def __init__(self, tokens: list[str], hash_buckets: int = 64):
        if hash_buckets < 1:
            raise ValueError("hash_buckets must be positive")
        if not all(isinstance(t, str) for t in tokens):
            raise TypeError("content tokens must be strings")
        if len(set(tokens)) != len(tokens):
            raise ValueError("content tokens must be unique")
        self.tokens = list(tokens)
        self.hash_buckets = hash_buckets
        self._token_to_id = {t: N_RESERVED + i for i, t in enumerate(tokens)}

    @classmethod
    def from_texts(cls, texts, hash_buckets: int = 64) -> "Vocabulary":
        seen = set()
        for text in texts:
            seen.update(tokenize(text))
        return cls(sorted(seen), hash_buckets=hash_buckets)

    @property
    def n_content(self) -> int:
        return len(self.tokens)

    @property
    def size(self) -> int:
        return N_RESERVED + len(self.tokens) + self.hash_buckets

    def token_id(self, token: str) -> int:
        tid = self._token_to_id.get(token)
        if tid is not None:
            return tid
        bucket = _stable_hash(token) % self.hash_buckets
        return N_RESERVED + len(self.tokens) + bucket

    def encode(self, text: str) -> list[int]:
        return [self.token_id(t) for t in tokenize(text)]

    def id_to_token(self, tid: int) -> str:
        if not 0 <= tid < self.size:
            raise ValueError(f"token id {tid} out of range")
        if tid < N_RESERVED:
            return ("<pad>", "<bos>", "<eos>", "<unk>")[tid]
        if tid < N_RESERVED + len(self.tokens):
            return self.tokens[tid - N_RESERVED]
        return f"<unk{tid - N_RESERVED - len(self.tokens)}>"

    def decode(self, ids, skip_special: bool = True) -> str:
        toks = []
        for tid in ids:
            if skip_special and tid < N_RESERVED:
                continue
            toks.append(self.id_to_token(tid))
        return " ".join(toks)
