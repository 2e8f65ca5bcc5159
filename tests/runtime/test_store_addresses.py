"""Pinned store addresses of the Monte-Carlo and importance-sampling sweeps.

Every sweep reads and writes a content-addressed store.  An existing
``.repro_cache`` stays warm only while each sweep keeps producing the
same addresses, with the same traffic: which entries it looks up, which
it writes, and which it skips.  This module pins that traffic for one
small, fully literal population (the read-cycle budget is passed in, so
no solver output enters a key): a recording store logs every
``get``/``put`` as ``(op, namespace, content key)``, and the multiset of
records of a cold run and of a warm rerun must equal the literal keys
below.  The keys are :func:`~repro.runtime.content_key` values (the
leading 32 hex digits of a SHA-256), which name the entries of every
store tier, :class:`~repro.runtime.ResultCache` files included.
"""

import json
from collections import Counter

import pytest

from repro.runtime import CACHE_VERSION, content_key
from repro.sram.characterize import characterize_cell
from repro.sram.importance_sampling import ImportanceSampler
from repro.sram.montecarlo import MonteCarloAnalyzer
from repro.sram.read_path import BitlineModel

VDDS = (0.65, 0.75)
ROWS = 64
N_SAMPLES = 512
BLOCK_SAMPLES = 128
SEED = 5
READ_CYCLE = 1.6e-10

#: ``mc`` point entries, one per voltage of VDDS.
MC = (
    "432d1e23c8234ecf3deeebdbf69edfd1",
    "f5e9c8b728cdc61267b7ffc3da549dc0",
)
#: ``mcshard`` entries: the four shards of VDDS[0], then of VDDS[1].
MCSHARD = (
    "d35eaf1665390709a77598e0aeb448a0",
    "1d5888199bac4af04a0f1eee857cd85c",
    "5938044c20590260071272facb5e6576",
    "69d982d807a4433d33e0661de8f584b2",
    "6d78bbe0c65920f0c966d357e1921512",
    "254d338946e7431d9a46c9216b7589ef",
    "4ddc2d7dacce6ba49f8b05cc9e38505a",
    "7de80667149f292537d7d47f54c85a19",
)
#: ``cellpoint`` entries, one per voltage of VDDS.
CELLPOINT = (
    "efd508a09d617ceab158fa6fba4943b2",
    "b46a57622074ba82c68da980d9d9a2fb",
)
#: The ``cell`` table entry of the whole grid.
CELL = "f37532ff804829858efb6c43bf7d0ebe"
#: ``is`` point entries, one per voltage of VDDS.
IS = (
    "23f73770aa40a5ab73b9513c78f875cc",
    "08e12f5b15d53d828bd357ac087e1f87",
)


class RecordingStore:
    """In-memory ``CacheLike`` that logs every lookup and write."""

    def __init__(self):
        self.entries = {}
        self.log = []

    def _key(self, op, namespace, payload):
        key = content_key(namespace, payload, CACHE_VERSION)
        self.log.append((op, namespace, key))
        return key

    def get(self, namespace, payload):
        return self.entries.get(self._key("get", namespace, payload))

    def put(self, namespace, payload, value):
        # Store what a JSON store would hand back, not the live object.
        self.entries[self._key("put", namespace, payload)] = json.loads(
            json.dumps(value)
        )


def traffic(*parts):
    """Multiset of records: each part is ``(op, namespace, keys)``."""
    return Counter((op, ns, key) for op, ns, keys in parts for key in keys)


def cold_and_warm(run):
    """Traffic of a cold run and of a rerun on the same store."""
    store = RecordingStore()
    run(store)
    cold = Counter(store.log)
    store.log.clear()
    run(store)
    return cold, Counter(store.log)


@pytest.fixture(scope="module")
def analyzer(cell6):
    return MonteCarloAnalyzer(
        cell=cell6,
        n_samples=N_SAMPLES,
        bitline=BitlineModel(cell6.technology, rows=ROWS).for_cell(cell6),
        seed=SEED,
        read_cycle=READ_CYCLE,
        block_samples=BLOCK_SAMPLES,
    )


def test_analyze_sweep_unsharded(analyzer):
    cold, warm = cold_and_warm(lambda store: analyzer.analyze_sweep(VDDS, cache=store))
    assert cold == traffic(("get", "mc", MC), ("put", "mc", MC))
    assert warm == traffic(("get", "mc", MC))


def test_analyze_sweep_sharded(analyzer):
    cold, warm = cold_and_warm(
        lambda store: analyzer.analyze_sweep(VDDS, cache=store, shards=4)
    )
    assert cold == traffic(
        ("get", "mc", MC), ("put", "mc", MC),
        ("get", "mcshard", MCSHARD), ("put", "mcshard", MCSHARD),
    )
    assert warm == traffic(("get", "mc", MC))


def test_analyze_sharded(analyzer):
    cold, warm = cold_and_warm(
        lambda store: analyzer.analyze_sharded(VDDS[0], shards=4, cache=store)
    )
    assert cold == traffic(("get", "mcshard", MCSHARD[:4]), ("put", "mcshard", MCSHARD[:4]))
    assert warm == traffic(("get", "mcshard", MCSHARD[:4]))


@pytest.mark.parametrize("shards", [None, 4])
def test_characterize_cell(shards):
    def run(store):
        return characterize_cell(
            "6t", vdd_grid=VDDS, rows=ROWS, n_samples=N_SAMPLES, seed=SEED,
            read_cycle=READ_CYCLE, block_samples=BLOCK_SAMPLES, cache=store,
            shards=shards,
        )

    cold, warm = cold_and_warm(run)
    expected = traffic(
        ("get", "cell", [CELL]), ("put", "cell", [CELL]),
        ("get", "cellpoint", CELLPOINT), ("put", "cellpoint", CELLPOINT),
    )
    if shards is not None:
        expected += traffic(("get", "mcshard", MCSHARD), ("put", "mcshard", MCSHARD))
    assert cold == expected
    assert warm == traffic(("get", "cell", [CELL]))


def test_estimate_sweep(cell6):
    sampler = ImportanceSampler(
        cell6,
        bitline=BitlineModel(cell6.technology, rows=ROWS).for_cell(cell6),
        read_cycle=READ_CYCLE,
    )

    def run(store):
        results = sampler.estimate_sweep(VDDS, n_samples=200, seed=SEED, cache=store)
        return [r.to_dict() for r in results]

    cold, warm = cold_and_warm(run)
    assert cold == traffic(("get", "is", IS), ("put", "is", IS))
    assert warm == traffic(("get", "is", IS))
