"""Versioned key-value state, one instance per channel.

Only version numbers and generation timestamps are stored; the values
themselves never influence timing, so they are not modeled.  Absent keys
read as version 0 and every successful commit increments by exactly 1.
Versions and timestamps sit in two plain dicts: ints and floats are not
containers, so a ledger of any size gives the cyclic collector nothing to
count or walk.
"""


class LedgerState:
    __slots__ = ("versions", "gen_times")

    def __init__(self):
        self.versions = {}  # key -> version
        self.gen_times = {}  # key -> generation time of the last committed update

    def read_version(self, key):
        return self.versions.get(key, 0)

    def apply_update(self, key, gen_time):
        """Commit one update; caller must have passed MVCC for this key."""
        version = self.versions.get(key, 0) + 1
        self.versions[key] = version
        self.gen_times[key] = gen_time
        return version

    def entries(self):
        """Snapshot of the full key -> (version, last_gen_time) map."""
        gen_times = self.gen_times
        return {key: (version, gen_times[key]) for key, version in self.versions.items()}
