"""Update sources, transmitter queue discipline, and the lossy channel.

Sources emit timestamped update proposals.  A single shared channel serves
the transmitter queue under FCFS or LCFS; each transmission succeeds with
probability ``stp`` and is otherwise dropped permanently (no retransmission,
so the delivered rate thins to total_rate * stp).

A proposal joins the transmitter queue only at its own generation, so the
queue holds its proposals in generation order, ties in insertion order.  A
deque of them is therefore exact for both disciplines: FCFS serves its left
end (the oldest, the first inserted of equal generation times) and LCFS its
right end (the newest, the last inserted).  The front's slot pass keeps a
waiting proposal as its number in generation order; under FCFS the delivery
times need no queue at all (Lindley's recursion, see `bcesim.frontback`).
"""

# The tracked ledger key. Background proposals use their own unique ids as
# keys so MVCC conflicts can only involve the target.
TARGET_KEY = 0
