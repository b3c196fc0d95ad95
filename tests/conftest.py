import os

import pytest

import pwpowers
from pwpowers import _kernels
from pwpowers.search import SearchQuery, search_max_powers
from pwpowers.verify import (
    verify_corollary_full,
    verify_fine_wilf,
    verify_lemma_h1,
    verify_theorem_sq_bound,
)
from helpers import occurrence_scan_by_roots

# CLI tests run `python -m pwpowers` in subprocesses; point them at the
# package this process imported, so a plain checkout needs no install
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(pwpowers.__file__))
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_PACKAGE_ROOT, os.environ.get("PYTHONPATH")])
)


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # compile every jitted kernel once up front so per-test timing budgets
    # measure the algorithms rather than the JIT
    w = memoryview(bytes([0, 1, 2, 1]))
    _kernels.occurrence_scan(w, 2)
    occurrence_scan_by_roots(w, 2, 2)
    verify_fine_wilf(1, 2)
    verify_corollary_full(2, 1, 2)
    verify_lemma_h1(1, 2)
    verify_theorem_sq_bound(1, 2)
    search_max_powers(SearchQuery(exponent=2, alphabet_size=1, max_len=2))
