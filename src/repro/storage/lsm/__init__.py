"""LSM storage framework: merge policies, the shared lifecycle harness
and the index kinds that ride it (component encodings live in
:mod:`repro.storage.lsm.component`)."""

from repro.storage.lsm.lsm_btree import LSMBTree
from repro.storage.lsm.lsm_inverted import (
    LSMInvertedIndex,
    ngram_query_tokens,
    ngram_tokens,
    word_tokens,
)
from repro.storage.lsm.lsm_rtree import LSMRTree
from repro.storage.lsm.merge_policy import (
    ConstantMergePolicy,
    MergePolicy,
    NoMergePolicy,
    PrefixMergePolicy,
)

__all__ = [
    "ConstantMergePolicy",
    "LSMBTree",
    "LSMInvertedIndex",
    "LSMRTree",
    "MergePolicy",
    "NoMergePolicy",
    "PrefixMergePolicy",
    "ngram_query_tokens",
    "ngram_tokens",
    "word_tokens",
]
