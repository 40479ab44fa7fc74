"""Pinned hook-crossing sequences: every manager's fault points, in order.

One fixed script — write, flush, commit, abort, checkpoint (with a
transaction active, then quiescent), crash, recover, dump, targeted
repair and an escalating repair — is driven through each of the seven
functional managers with a recording fault callback.  The ordered list
of hook names it crosses is pinned by length and sha256, so a refactor
of the shared manager code cannot add, drop, rename or reorder a crash
point without failing here.
"""

import hashlib

import pytest

from repro.checkpoint import CHECKPOINT_FILE
from repro.faults import ARCHITECTURES, make_manager

PINNED = {
    "command": (85, "8fca02441ef02d78a4104001e32330da6142dca3d70220ce6d5abdf2a826af4c"),
    "differential": (47, "2d9d0080bcefe74db9c186e49f1c2b3a7ba50efa721ed432541e0ccfc8fb3ef1"),
    "overwrite": (68, "0c3887651e7c9ce676c08f2db750a4df3725a9a3a025b8740b0a15bc72889a49"),
    "redo": (54, "4fb1db080ad55b367dcbb581a2496e862e8eb88de524b9ac3875951deac4f7bb"),
    "shadow": (41, "a02eace426b9ed0e5422132134c9a423dd2f0912a990e9aca0b1ffc4d6057853"),
    "versions": (59, "58af0783210ed8db92ede95b60238cddd56bee223a978796267f0c83158f7026"),
    "wal": (94, "ed45bec3b62299c1a43f25cc0c4121233e7236734ec7aaacc8b3604c2753d059"),
}


def hook_sequence(arch):
    """The hook names ``arch`` crosses running the fixed script."""
    manager = make_manager(arch)
    seen = []
    manager.set_fault_callback(seen.append)
    flush = getattr(manager, "flush_page", lambda page: None)
    t1 = manager.begin()
    manager.write(t1, 0, b"a")
    manager.write(t1, 1, b"b")
    flush(0)
    manager.commit(t1)
    t2 = manager.begin()
    manager.write(t2, 1, b"c")
    flush(1)
    manager.abort(t2)
    t3 = manager.begin()
    manager.write(t3, 2, b"d")
    manager.take_checkpoint()
    manager.commit(t3)
    manager.take_checkpoint()
    t4 = manager.begin()
    manager.write(t4, 3, b"e")
    flush(3)
    t5 = manager.begin()
    manager.write(t5, 4, b"g")
    manager.commit(t5)
    manager.crash()
    manager.recover()
    manager.dump()
    t6 = manager.begin()
    manager.write(t6, 0, b"f")
    manager.commit(t6)
    # Targeted repair: the rotted page and checkpoint record both have
    # clean archived copies.
    pages = sorted(manager.stable.pages)
    if pages:
        manager.stable.corrupt_page(pages[-1])
    manager.stable.corrupt_record(CHECKPOINT_FILE, 0)
    assert manager.repair_corruption()["escalations"] == 0
    # Escalation: a checkpoint record taken after the dump has no copy.
    manager.take_checkpoint()
    manager.stable.corrupt_record(CHECKPOINT_FILE, manager.checkpoint_count() - 1)
    assert manager.repair_corruption()["escalations"] == 1
    return seen


def test_every_manager_is_pinned():
    assert sorted(PINNED) == sorted(ARCHITECTURES)


@pytest.mark.parametrize("arch", sorted(PINNED))
def test_hook_sequence_is_pinned(arch):
    seen = hook_sequence(arch)
    digest = hashlib.sha256("\n".join(seen).encode()).hexdigest()
    assert (len(seen), digest) == PINNED[arch], seen
