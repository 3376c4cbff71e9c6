"""Versioned key-value state, one instance per channel.

Only version numbers and generation timestamps are stored; the values
themselves never influence timing, so they are not modeled.  Absent keys
read as version 0 and every successful commit increments by exactly 1.
Versions and timestamps sit in two plain dicts, which the back reads and
writes directly: ints and floats are not containers, so a ledger of any size
gives the cyclic collector nothing to count or walk.
"""


class LedgerState:
    __slots__ = ("versions", "gen_times")

    def __init__(self):
        self.versions = {}  # key -> version
        self.gen_times = {}  # key -> generation time of the last committed update
