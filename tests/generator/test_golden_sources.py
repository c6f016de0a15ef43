"""Golden byte-identity: generated coNCePTuaL sources are pinned.

Each entry pins the first 16 hex digits of the sha256 and the line
count of the source that ``full_pipeline(run=False)`` emits for one
registry app at class S.  The digests were computed before the
emitter's run-length/IF builders and the traversal-apply step were
consolidated, so any refactor of the generator that changes a single
byte of output fails here.  Regenerate an entry only for a deliberate
change to the generated language, and say so in CHANGES.md.
"""

import hashlib

import pytest

from repro.apps import APPS
from repro.generator import generate_from_application
from repro.pipeline import PipelineConfig, full_pipeline

#: "app/npN" -> (sha256[:16], line count), class S
GOLDEN = {
    "amg/np8": ("9c3b2ec8214f9ff5", 391),
    "amg/np16": ("6240bc880d98b323", 1175),
    "bt/np9": ("ef737a585a157ef7", 247),
    "bt/np16": ("e8c77e15f055e4ce", 412),
    "cg/np8": ("c88bcf0cedbe0068", 111),
    "cg/np16": ("c87fa97c28169f38", 220),
    "ep/np8": ("ce79f6d2497423ec", 6),
    "ep/np16": ("e7d01d5bd246aef0", 6),
    "ft/np8": ("4c824f0a35c4619b", 11),
    "ft/np16": ("27292f36578a79a4", 11),
    "halo3d/np8": ("a69adaf2550f9978", 347),
    "halo3d/np16": ("34839e8970b793d0", 885),
    "is/np8": ("99785b4456643893", 14),
    "is/np16": ("82bf14ca01055365", 14),
    "jacobi/np8": ("62925aab8fff5990", 156),
    "jacobi/np16": ("1f732148294afa3a", 364),
    "kripke/np8": ("3a17fc80d1af928b", 435),
    "kripke/np16": ("b3c0f9562f491d48", 1427),
    "laghos/np8": ("2b2a7c4a5d91b0d9", 290),
    "laghos/np16": ("4e337bb8bd697f12", 664),
    "lu/np8": ("ad3302da5dccaa88", 178),
    "lu/np16": ("4bbe8bfd838170db", 300),
    "mg/np8": ("15de9b210014ab27", 1434),
    "mg/np16": ("cc680b3b797f7d4f", 3610),
    "race/np8": ("e42785d09b0e121e", 26),
    "race/np16": ("a5d4bdfd50d7aaa8", 50),
    "ring/np8": ("c7776976f9353478", 9),
    "ring/np16": ("e4c7a3f155006a67", 9),
    "sp/np9": ("b73c20230f58766a", 302),
    "sp/np16": ("697443eb2603f53b", 454),
    "sweep3d/np8": ("bc3196437979917a", 82),
    "sweep3d/np16": ("5ad6f219e9739064", 82),
}


def _fingerprint(source):
    return (hashlib.sha256(source.encode()).hexdigest()[:16],
            source.count("\n"))


def test_golden_covers_every_registry_app():
    assert {key.split("/")[0] for key in GOLDEN} == set(APPS)


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_generated_source_byte_identical(key):
    app, np_s = key.split("/")
    result = full_pipeline(run=False).run(
        PipelineConfig(app=app, nranks=int(np_s[2:]), cls="S"))
    assert _fingerprint(result.artifacts["source"]) == GOLDEN[key], \
        f"{key}: generated source drifted from the committed digest"


#: bcast roots per (outer, inner) iteration: no single loop explains
#: them, so the emitter guards on the flattened index rep0 * 3 + rep1
FLAT_ROOTS = [0, 1, 1, 0, 0, 1, 1, 1, 0]


def test_collective_flat_index_fallback_byte_identical():
    def app(mpi):
        for i in range(3):
            for j in range(3):
                yield from mpi.bcast(64, root=FLAT_ROOTS[3 * i + j])
            yield from mpi.barrier()
        yield from mpi.finalize()

    source = generate_from_application(app, 4).source
    assert "IF rep0 * 3 + rep1 >= 5 /\\ rep0 * 3 + rep1 <= 7 THEN" \
        in source
    assert _fingerprint(source) == ("dadf9bf6c530053d", 22)
