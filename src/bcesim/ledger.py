"""Versioned key-value state, one instance per channel.

Only version numbers and generation timestamps are stored; the values
themselves never influence timing, so they are not modeled.  Absent keys
read as version 0 and every successful commit increments by exactly 1.
"""


class LedgerState:
    __slots__ = ("channel", "_entries")

    def __init__(self, channel=0):
        self.channel = channel
        self._entries = {}  # key -> (version, last_gen_time)

    def read_version(self, key):
        entry = self._entries.get(key)
        return entry[0] if entry is not None else 0

    def apply_update(self, key, gen_time):
        """Commit one update; caller must have passed MVCC for this key."""
        entry = self._entries.get(key)
        version = (entry[0] if entry is not None else 0) + 1
        self._entries[key] = (version, gen_time)
        return version

    def entries(self):
        """Snapshot of the full (version, last_gen_time) map."""
        return dict(self._entries)
