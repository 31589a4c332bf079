"""Fixed reference work that measures how fast this machine runs right now.

The benchmark times this script in a fresh interpreter after every timed
invocation, and divides each invocation's wall time by the mean of the two
reference times on either side of it (bench.py).  On a shared machine the
speed of the same work drifts by tens of percent within seconds; a
reference timed next to the work cancels most of that drift.  The mix is
close to what consets does: interpreter loops and dict stores, the
footprint-size count and order recurrence in big integers with every
column kept, as the layer tables keep them, and triangular sums over the
kept columns reduced by a gcd and printed, as a table row is.  Changing
this file changes every relative time, so a change to it is a change of
the benchmark.
"""

from math import comb, gcd

state = 0
table = {}
for i in range(50000):
    table[i & 1023] = i * i + state
    state = (state ^ i) + 1

m = 6
matrix = [[comb(m, j) - comb(m - i, j) for j in range(1, m + 1)] for i in range(1, m + 1)]
weights = [comb(m, j) for j in range(1, m + 1)]
counts = [(1,) * m]
orders = [tuple(range(1, m + 1))]
for _ in range(1000):
    column, order = counts[-1], orders[-1]
    counts.append(tuple(sum(a * x for a, x in zip(row, column)) for row in matrix))
    orders.append(tuple(sum(a * x for a, x in zip(row, order)) + (i + 1) * counts[-1][i]
                        for i, row in enumerate(matrix)))

totals = [sum(w * x for w, x in zip(weights, column)) for column in counts]
order_sums = [sum(w * x for w, x in zip(weights, order)) for order in orders]
digits = 0
for n in range(300, 1001, 20):
    big_n = sum((n + 1 - k) * totals[k - 1] for k in range(1, n + 1))
    big_s = sum((n + 1 - k) * order_sums[k - 1] for k in range(1, n + 1))
    common = gcd(big_n, big_s)
    digits += len(str(big_s // common)) + len(str(big_n // common))
print(state % 1000003, sum(counts[-1]) % 1000003, digits)
