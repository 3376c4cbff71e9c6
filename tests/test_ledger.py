from hypothesis import given, strategies as st

from des_oracle import LedgerState, apply_update, entries, read_version


def test_unseen_key_reads_version_zero():
    assert read_version(LedgerState(), "anything") == 0


def test_reads_do_not_mutate():
    ledger = LedgerState()
    apply_update(ledger, "k", 1.0)
    assert read_version(ledger, "k") == read_version(ledger, "k") == 1


def test_sequential_applies_count_up():
    ledger = LedgerState()
    for i in range(5):
        assert apply_update(ledger, "k", float(i)) == i + 1
    assert read_version(ledger, "k") == 5


@given(
    st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.floats(0, 100)),
        max_size=50,
    )
)
def test_log_replay_reproduces_final_state(log):
    ledger = LedgerState()
    for key, gen in log:
        apply_update(ledger, key, gen)
    replayed = LedgerState()
    for key, gen in log:
        apply_update(replayed, key, gen)
    assert entries(replayed) == entries(ledger)
    for key in {k for k, _ in log}:
        assert read_version(ledger, key) == sum(1 for k, _ in log if k == key)
