"""One pass of each benchmark workload, checked as the benchmark checks it.

Each item goes through its workload's own ``run`` and ``verify``, and the
SHA-256 of the bytes the items emit over the pass is pinned, so a change
of verdict or of output shows here before a benchmark run.  The library
namespace is built the way ``bench/run.py`` builds it; this test reads
``bench/`` and changes nothing there.
"""

import hashlib
import importlib
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 11
PASS_DIGESTS = {
    "crosscheck_cli": "460b9780783b546df7902d7896f8460583203d370e6a564f4742ab90801bda5c",
    "rel_inj_grid": "0cd8028751653348260d19ca4d958554f311bd6ae58d89ec592028626f970d13",
    "pure_split_sweep": "50656b3aacc934dc056f934a021172637a43bd32836f8b30a261d6517def9fab",
    "analyze_mix": "56771f73e9824c1ed3fb52c31259242cc3b4ba6d317ff75d963a10fafca24358",
}


@pytest.mark.parametrize("workload", sorted(PASS_DIGESTS))
def test_one_pass_verifies_with_pinned_digest(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    run = importlib.import_module("run")
    workloads = importlib.import_module("workloads")
    lib = SimpleNamespace(**{layer: importlib.import_module(f"abelcheck.{layer}") for layer in run.LAYERS})
    work = workloads.WORKLOADS[workload](lib, SEED)
    digest = hashlib.sha256()
    for item in work.items:
        ok, emitted = work.verify(item, work.run(item))
        assert ok, item
        digest.update(emitted)
    assert digest.hexdigest() == PASS_DIGESTS[workload]
