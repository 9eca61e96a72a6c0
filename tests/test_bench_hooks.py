"""The benchmark's per-layer hooks still find what they wrap.

``bench/layers.py`` wraps public methods of the program by name (through
``vars(owner)[name]``) for its traced run, so renaming one of them breaks
every traced benchmark run with a ``KeyError``.  This guard installs the
hooks the way the traced run does, drives one durable statement through
them, and checks that ``restore()`` puts every original back.
"""

import importlib.util
from pathlib import Path

from repro.harness.systems import SMALL_CACHE_CONFIG, build_system
from repro.imdb.database import Database

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_hooks_install_record_and_restore():
    layers = _load_layers()
    recorder = layers.SpanRecorder()
    layers.install_hooks(recorder)
    layers.install_eligibility_probe(recorder)
    originals = {}
    for owner, attr, original in recorder._patches:
        # An attribute patched twice keeps its first (true) original.
        originals.setdefault((owner, attr), original)
    try:
        for (owner, attr), original in originals.items():
            assert vars(owner)[attr] is not original
        db = Database(build_system("RC-NVM", small=True),
                      cache_config=SMALL_CACHE_CONFIG, verify=False)
        db.enable_durability()
        db.create_table("t", [("id", 8), ("v", 8)], layout="column")
        db.insert_many("t", [(i, i) for i in range(32)])
        recorder.call("stmt", lambda: db.execute("UPDATE t SET v = 5 WHERE id < 4"))
        spans, _counts = recorder.take()
    finally:
        recorder.restore()
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, f"{owner!r}.{attr} not restored"
    names = {span[0] for span in spans}
    assert {"stmt", "parse", "plan", "exec", "replay", "durability"} <= names
