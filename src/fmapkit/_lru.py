"""The bounded least-recently-used map behind fmapkit's caches: the parsed
meshes of `mesh.load_mesh` and each mesh's derived values (`mesh.derived`)."""

from __future__ import annotations

import threading
from collections import OrderedDict


class LRU:
    """The values of the `size` most recently used keys.

    Threads share an instance: one lock covers the lookup and the build, so
    a value is built once per miss and one at a time. A miss evicts before
    it builds, since an entry freed after the new one is built leaves its
    blocks stranded in the allocator's heap (`match` at n = 2562 then peaks
    at ~160 MiB RSS instead of ~140). A build that raises stores nothing.
    """

    def __init__(self, size: int):
        self.size = size
        self._entries = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key, build):
        """The value cached under `key`, or build() stored there."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                return self._entries[key]
            while len(self._entries) >= self.size:
                self._entries.popitem(last=False)
            value = self._entries[key] = build()
            return value

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
