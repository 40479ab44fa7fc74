"""A crash-safe B+tree index over any recovery manager.

The index stores its nodes as manager pages, so
inserts/deletes are transactional and survive crashes under every one of
the paper's recovery mechanisms.  Keys and values are ``bytes``; keys
order lexicographically (callers wanting numeric order encode big-endian).

Design choices, kept deliberately simple and verifiable:

* classic B+tree — values only in leaves, leaves chained for range scans;
* nodes split when their serialized form outgrows the page budget (no
  fixed fan-out: variable-length keys just work);
* deletes are lazy — keys are removed but nodes are not rebalanced, which
  keeps the tree valid (search/scan correctness is unaffected) at the cost
  of space after heavy deletion; ``entries()`` and tests document this.

Example::

    from repro.storage import DistributedWalManager
    from repro.storage.btree import BTree

    manager = DistributedWalManager(n_logs=2)
    index = BTree(manager, file_id=7)
    tid = manager.begin()
    index.insert(tid, b"alice", b"page-4:slot-2")
    manager.commit(tid)
    assert index.search(None, b"alice") == b"page-4:slot-2"
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.integrity import RecordIntegrityError
from repro.storage.interface import RecoveryManager
from repro.storage.records import RecordCodecError, decode_record, encode_record

__all__ = ["BTree", "KeyTooLargeError"]

#: Page-number region per file (file_id * REGION + page_no).
REGION = 1_000_000

#: Sentinel page number for "no sibling".
_NO_PAGE = -1


class KeyTooLargeError(Exception):
    """A key/value pair exceeds what one node can ever hold."""


class _Node:
    """In-memory node; persisted via the record codec."""

    __slots__ = ("is_leaf", "keys", "values", "children", "next_leaf")

    def __init__(self, is_leaf: bool):
        self.is_leaf = is_leaf
        self.keys: List[bytes] = []
        self.values: List[bytes] = []       # leaves only
        self.children: List[int] = []       # internal only
        self.next_leaf: int = _NO_PAGE      # leaves only

    def encode(self) -> bytes:
        if self.is_leaf:
            flat: List = []
            for key, value in zip(self.keys, self.values):
                flat.extend((key, value))
            return encode_record((1, self.next_leaf, *flat))
        flat = [self.children[0]] if self.children else []
        for key, child in zip(self.keys, self.children[1:]):
            flat.extend((key, child))
        return encode_record((0, _NO_PAGE, *flat))

    @classmethod
    def decode(cls, raw: bytes) -> "_Node":
        fields = decode_record(raw)
        node = cls(is_leaf=bool(fields[0]))
        if node.is_leaf:
            node.next_leaf = fields[1]
            payload = fields[2:]
            node.keys = list(payload[0::2])
            node.values = list(payload[1::2])
        else:
            payload = fields[2:]
            if payload:
                node.children = [payload[0]]
                node.keys = list(payload[1::2])
                node.children += list(payload[2::2])
        return node


class BTree:
    """B+tree over a recovery manager's page space; see module docstring."""

    def __init__(
        self,
        manager: RecoveryManager,
        file_id: int,
        page_size: int = 4096,
    ):
        if file_id < 0:
            raise ValueError("file id must be non-negative")
        self.manager = manager
        self.file_id = file_id
        self.page_size = page_size

    # -- page plumbing -----------------------------------------------------------
    def _key_of(self, page_no: int) -> int:
        return self.file_id * REGION + page_no + 1

    def _meta_key(self) -> int:
        return self.file_id * REGION

    def _read_meta(self, tid) -> Tuple[int, int]:
        """(root page_no, allocated page count); (-1, 0) for a fresh tree."""
        raw = self._read(tid, self._meta_key())
        if not raw:
            return _NO_PAGE, 0
        try:
            root, count = decode_record(raw)
        except RecordCodecError as exc:
            raise RecordIntegrityError(
                f"btree:{self.file_id}", 0, f"meta page: {exc}"
            ) from exc
        return root, count

    def _write_meta(self, tid: int, root: int, count: int) -> None:
        self.manager.write(tid, self._meta_key(), encode_record((root, count)))

    def _read(self, tid, key: int) -> bytes:
        if tid is None:
            return self.manager.read_committed(key)
        return self.manager.read(tid, key)

    def _load(self, tid, page_no: int) -> _Node:
        raw = self._read(tid, self._key_of(page_no))
        try:
            return _Node.decode(raw)
        except RecordCodecError as exc:
            raise RecordIntegrityError(
                f"btree:{self.file_id}", page_no, str(exc)
            ) from exc

    def _store(self, tid: int, page_no: int, node: _Node) -> None:
        raw = node.encode()
        if len(raw) > self.page_size:  # pragma: no cover - guarded by splits
            raise AssertionError("node outgrew its page despite splitting")
        self.manager.write(tid, self._key_of(page_no), raw)

    def _fits(self, node: _Node) -> bool:
        return len(node.encode()) <= self.page_size

    # -- public API -----------------------------------------------------------------
    def insert(self, tid: int, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        self._check_pair(key, value)
        root, count = self._read_meta(tid)
        if root == _NO_PAGE:
            leaf = _Node(is_leaf=True)
            leaf.keys, leaf.values = [key], [value]
            self._store(tid, 0, leaf)
            self._write_meta(tid, 0, 1)
            return
        path = self._descend(tid, root, key)
        leaf_no = path[-1]
        leaf = self._load(tid, leaf_no)
        self._leaf_put(leaf, key, value)
        if self._fits(leaf):
            self._store(tid, leaf_no, leaf)
            return
        self._split_up(tid, path, leaf, root, count)

    def search(self, tid, key: bytes) -> Optional[bytes]:
        """The value for ``key``, or None.  ``tid=None`` reads committed."""
        root, _count = self._read_meta(tid)
        if root == _NO_PAGE:
            return None
        node = self._load(tid, self._descend(tid, root, key)[-1])
        for existing, value in zip(node.keys, node.values):
            if existing == key:
                return value
        return None

    def delete(self, tid: int, key: bytes) -> bool:
        """Remove ``key`` (lazy: no rebalancing); returns whether it existed."""
        root, _count = self._read_meta(tid)
        if root == _NO_PAGE:
            return False
        leaf_no = self._descend(tid, root, key)[-1]
        leaf = self._load(tid, leaf_no)
        for index, existing in enumerate(leaf.keys):
            if existing == key:
                del leaf.keys[index]
                del leaf.values[index]
                self._store(tid, leaf_no, leaf)
                return True
        return False

    def entries(
        self,
        tid=None,
        low: Optional[bytes] = None,
        high: Optional[bytes] = None,
    ) -> Iterator[Tuple[bytes, bytes]]:
        """(key, value) pairs in key order, optionally within [low, high)."""
        root, _count = self._read_meta(tid)
        if root == _NO_PAGE:
            return
        node = self._load(tid, self._descend(tid, root, low or b"")[-1])
        while True:
            for key, value in zip(node.keys, node.values):
                if low is not None and key < low:
                    continue
                if high is not None and key >= high:
                    return
                yield key, value
            if node.next_leaf == _NO_PAGE:
                return
            node = self._load(tid, node.next_leaf)

    def __len__(self) -> int:
        return sum(1 for _ in self.entries(None))

    def height(self, tid=None) -> int:
        """Levels from root to leaf (0 for an empty tree)."""
        root, _count = self._read_meta(tid)
        if root == _NO_PAGE:
            return 0
        levels = 1
        node = self._load(tid, root)
        while not node.is_leaf:
            node = self._load(tid, node.children[0])
            levels += 1
        return levels

    # -- internals --------------------------------------------------------------------
    def _check_pair(self, key: bytes, value: bytes) -> None:
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise TypeError("keys and values are bytes")
        probe = _Node(is_leaf=True)
        probe.keys, probe.values = [key], [value]
        if not self._fits(probe):
            raise KeyTooLargeError(
                f"key+value of {len(key) + len(value)} bytes cannot fit a "
                f"{self.page_size}-byte node"
            )

    def _descend(self, tid, root: int, key: bytes) -> List[int]:
        """Page numbers from root to the leaf responsible for ``key``."""
        path = [root]
        node = self._load(tid, root)
        while not node.is_leaf:
            index = self._child_index(node, key)
            path.append(node.children[index])
            node = self._load(tid, path[-1])
        return path

    @staticmethod
    def _child_index(node: _Node, key: bytes) -> int:
        index = 0
        while index < len(node.keys) and key >= node.keys[index]:
            index += 1
        return index

    @staticmethod
    def _leaf_put(leaf: _Node, key: bytes, value: bytes) -> None:
        index = 0
        while index < len(leaf.keys) and leaf.keys[index] < key:
            index += 1
        if index < len(leaf.keys) and leaf.keys[index] == key:
            leaf.values[index] = value
        else:
            leaf.keys.insert(index, key)
            leaf.values.insert(index, value)

    def _split_up(self, tid: int, path: List[int], node: _Node, root: int, count: int):
        """Split overflowing nodes bottom-up along ``path``."""
        while True:
            page_no = path.pop()
            middle = len(node.keys) // 2
            sibling = _Node(is_leaf=node.is_leaf)
            if node.is_leaf:
                sibling.keys = node.keys[middle:]
                sibling.values = node.values[middle:]
                node.keys = node.keys[:middle]
                node.values = node.values[:middle]
                separator = sibling.keys[0]
                sibling.next_leaf = node.next_leaf
                node.next_leaf = count
            else:
                separator = node.keys[middle]
                sibling.keys = node.keys[middle + 1 :]
                sibling.children = node.children[middle + 1 :]
                node.keys = node.keys[:middle]
                node.children = node.children[: middle + 1]
            sibling_no = count
            count += 1
            self._store(tid, page_no, node)
            self._store(tid, sibling_no, sibling)

            if not path:
                new_root = _Node(is_leaf=False)
                new_root.keys = [separator]
                new_root.children = [page_no, sibling_no]
                root_no = count
                count += 1
                self._store(tid, root_no, new_root)
                self._write_meta(tid, root_no, count)
                return
            parent_no = path[-1]
            parent = self._load(tid, parent_no)
            index = self._child_index(parent, separator)
            parent.keys.insert(index, separator)
            parent.children.insert(index + 1, sibling_no)
            if self._fits(parent):
                self._store(tid, parent_no, parent)
                self._write_meta(tid, root, count)
                return
            node = parent