"""Suite-wide configuration.

Plan verification (repro.analysis) is ON for the whole tier-1 suite:
every plan any test compiles — and every rewrite-rule firing along the
way — doubles as a verifier test case.  Tests that need the production
default (off) use the ``plan_verification(False)`` context manager.

``benchmarks/`` goes on ``sys.path`` so the unit tests of the
experiment-only structures (``benchmarks/zoo``: tests/index/,
tests/storage/test_linear_hash.py) can import ``zoo``.
"""

import os
import sys

from repro.analysis import set_plan_verification

set_plan_verification(True)
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir,
                                "benchmarks"))
