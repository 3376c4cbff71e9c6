from hypothesis import given, strategies as st

from bcesim.ledger import LedgerState


def test_unseen_key_reads_version_zero():
    assert LedgerState().read_version("anything") == 0


def test_reads_do_not_mutate():
    ledger = LedgerState()
    ledger.apply_update("k", 1.0)
    assert ledger.read_version("k") == ledger.read_version("k") == 1


def test_sequential_applies_count_up():
    ledger = LedgerState()
    for i in range(5):
        assert ledger.apply_update("k", float(i)) == i + 1
    assert ledger.read_version("k") == 5


@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.floats(0, 100)),
        max_size=50,
    )
)
def test_log_replay_reproduces_final_state(log):
    ledger = LedgerState()
    for key, gen in log:
        ledger.apply_update(key, gen)
    replayed = LedgerState()
    for key, gen in log:
        replayed.apply_update(key, gen)
    assert replayed.entries() == ledger.entries()
    for key in {k for k, _ in log}:
        assert ledger.read_version(key) == sum(1 for k, _ in log if k == key)
