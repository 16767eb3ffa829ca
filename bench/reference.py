#!/usr/bin/env python3
"""A fixed computation that run.py times next to every repetition.

    python3 bench/reference.py

It never imports medialq, so no change to the program can change its cost;
only the speed of the machine can.  The host of a shared virtual machine
speeds up and slows down by tens of percent over minutes, and the CLI
processes speed up and slow down with it.  run.py divides the CPU time of each
repetition by the CPU time of the reference run just before it, which takes
most of that drift out.

The work is of the kind the CLI does: a fresh interpreter that imports numpy,
then Python integer arithmetic over dicts and lists (a union-find), then
products of small integer matrices mod p.  It prints a checksum, which run.py
compares with REFERENCE_OUTPUT there, so that a reference that did not do its
work cannot pass.
"""

import numpy as np

N = 9973


def union_find_work() -> tuple:
    parent = list(range(N))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    seen = {}
    for a in range(1, 1100):
        for b in range(0, 1100, 3):
            key = (a * b + 7) % N, (a + b) % 97
            seen[key] = seen.get(key, 0) + 1
            ra, rb = find(key[0]), find((a * a + b) % N)
            if ra != rb:
                parent[ra] = rb
    return len(seen), len({find(i) for i in range(N)})


def matrix_work() -> int:
    m = np.arange(49 * 49, dtype=np.int64).reshape(49, 49) % 7
    total = 0
    for _ in range(300):
        m = (m @ m + 1) % 7
        total += int(m[::7, ::7].sum())
    return total


if __name__ == "__main__":
    print(*union_find_work(), matrix_work())
