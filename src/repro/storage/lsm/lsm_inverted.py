"""LSM inverted indexes: keyword and n-gram (paper feature 8).

AsterixDB offers "several variants of inverted keyword indexes" — Fig. 3(a)
creates one with ``CREATE INDEX ... TYPE KEYWORD`` on the message text.  An
inverted index maps tokens to the primary keys of the records containing
them; here the index *is* an :class:`LSMBTree` of postings keyed by
``(token, pk...)``, which gives it the whole LSM lifecycle (flush, merge,
antimatter, recovery) for free and mirrors AsterixDB's "inverted index as
a B+ tree of (token, key)" physical design.

Two tokenizers are provided: word tokens (KEYWORD indexes, conjunctive
keyword search) and character n-grams (NGRAM indexes, which also power
edit-distance similarity search: a string within edit distance *d* of the
query shares at least ``len(query) - n + 1 - d*n`` of its n-grams).
"""

from __future__ import annotations

import re

from repro.storage.buffer_cache import BufferCache
from repro.storage.file_manager import FileManager
from repro.storage.lsm.lsm_btree import LSMBTree

_WORD_RE = re.compile(r"[a-z0-9]+")


def word_tokens(text: str) -> set[str]:
    """Lowercased alphanumeric word tokens."""
    return set(_WORD_RE.findall(text.lower()))


def ngram_tokens(text: str, n: int = 3) -> set[str]:
    """Character n-grams of the lowercased text, padded at the edges."""
    padded = "\x01" * (n - 1) + text.lower() + "\x02" * (n - 1)
    return {padded[i:i + n] for i in range(len(padded) - n + 1)}


class LSMInvertedIndex(LSMBTree):
    """Token -> primary-key postings: an LSM B+ tree of (token, pk...)."""

    def __init__(self, fm: FileManager, cache: BufferCache, name: str, *,
                 tokenizer: str = "keyword", gram_length: int = 3, **kwargs):
        if tokenizer not in ("keyword", "ngram"):
            raise ValueError(f"unknown tokenizer {tokenizer!r}")
        super().__init__(fm, cache, name, bloom_fpr=0.05, **kwargs)
        self.tokenizer = tokenizer
        self.gram_length = gram_length

    def tokens_of(self, text: str) -> set[str]:
        if self.tokenizer == "keyword":
            return word_tokens(text)
        return ngram_tokens(text, self.gram_length)

    # -- maintenance ----------------------------------------------------------

    def insert_document(self, text: str, pk: tuple, lsn: int = 0) -> None:
        for token in self.tokens_of(text):
            self.upsert((token, *pk), b"", lsn)

    def delete_document(self, text: str, pk: tuple, lsn: int = 0) -> None:
        for token in self.tokens_of(text):
            self.delete((token, *pk), lsn)

    # -- search -----------------------------------------------------------------

    def search_token(self, token: str):
        """Yield primary-key tuples of documents containing ``token``."""
        for key, _ in self.scan(lo=(token,), hi=None):
            if key[0] != token:
                return
            yield key[1:]

    def search_conjunctive(self, text: str) -> list[tuple]:
        """PKs of documents containing *all* tokens of ``text`` (the
        semantics of SQL++'s ftcontains / keyword-index search)."""
        tokens = sorted(self.tokens_of(text))
        if not tokens:
            return []
        result = set(self.search_token(tokens[0]))
        for token in tokens[1:]:
            if not result:
                break
            result &= set(self.search_token(token))
        return sorted(result)

    def search_similarity(self, query: str, edit_distance: int) -> list[tuple]:
        """Candidate PKs for strings within ``edit_distance`` of ``query``
        (n-gram lower-bound filter; callers verify with the real edit
        distance — the standard filter-and-verify pipeline)."""
        if self.tokenizer != "ngram":
            raise ValueError("similarity search needs an ngram index")
        grams = ngram_tokens(query, self.gram_length)
        threshold = len(grams) - edit_distance * self.gram_length
        if threshold <= 0:
            raise ValueError(
                f"edit distance {edit_distance} too large for query "
                f"{query!r} with {self.gram_length}-grams (T-occurrence "
                f"threshold is non-positive; a scan would be required)"
            )
        counts: dict[tuple, int] = {}
        for gram in grams:
            for pk in self.search_token(gram):
                counts[pk] = counts.get(pk, 0) + 1
        return sorted(pk for pk, c in counts.items() if c >= threshold)
