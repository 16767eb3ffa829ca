"""Brute-force ground truth for "up to isomorphism".

Isomorphism of Cayley tables is decided in one place, `_iso_search`, by
backtracking over partial symbol bijections with per-symbol signature
pruning, plus forced propagation: once sigma is fixed on i and j it is
forced on i*j.  A fingerprint (the order and the diagonal's cycle type)
buckets tables; classification compares within a bucket, and there only
tables with equal sorted signatures.  Nothing in this module consults the
affine theory -- it works on raw tables -- so agreement with the enumerator
is genuine cross-validation, not a tautology.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass

from .gl2 import commutes, gl2_elements, units
from .groups import Cyclic, GroupSpec
from .quasigroup import AffineForm, CayleyTable

ISO_ORDER_CAP = 16
CLASSIFY_ORDER_CAP = 9


@dataclass(frozen=True)
class Fingerprint:
    """Cheap relabeling-invariant data used to bucket tables before isomorphism tests."""

    order: int
    diagonal_cycle_type: tuple


@dataclass(frozen=True)
class IsoClass:
    canonical_member: CayleyTable
    members: int
    fingerprint: Fingerprint


def _cycle_lengths(f) -> tuple:
    """Sorted lengths of the cycles in the functional graph of f.

    For a permutation this is its cycle type; for a general map only the
    eventual cycles count, which is still a relabeling invariant.  One walk
    per unreached start records the step at which each point is reached; a
    walk that stops on a point reached during that same walk closes a cycle.
    """
    reached = [-1] * len(f)
    lengths = []
    step = 0
    for start in range(len(f)):
        if reached[start] >= 0:
            continue
        begin = step
        x = start
        while reached[x] < 0:
            reached[x] = step
            step += 1
            x = f[x]
        if reached[x] >= begin:
            lengths.append(step - reached[x])
    return tuple(sorted(lengths))


def fingerprint(t: CayleyTable) -> Fingerprint:
    rows = t.rows
    return Fingerprint(t.n, _cycle_lengths([rows[i][i] for i in range(t.n)]))


def _signatures(rows) -> list:
    """Per-symbol invariants: (row cycle type, column cycle type, idempotent?)."""
    return [
        (_cycle_lengths(row), _cycle_lengths(col), row[i] == i)
        for i, (row, col) in enumerate(zip(rows, zip(*rows)))
    ]


def _iso_search(s, sig_s, t, sig_t) -> bool:
    """Whether row tuples s and t are isomorphic, given their `_signatures`.

    Every isomorphism decision in this module is made here.
    """
    n = len(s)
    if n > ISO_ORDER_CAP:
        raise ValueError(f"order {n} exceeds the exhaustive cap {ISO_ORDER_CAP}")
    if s == t:
        return True
    if sorted(sig_s) != sorted(sig_t):
        return False
    cand = [[v for v in range(n) if sig_t[v] == sig_s[i]] for i in range(n)]
    order = sorted(range(n), key=lambda i: len(cand[i]))

    m = [-1] * n
    used = [False] * n
    mapped: list = []

    def assign(i, v) -> bool:
        # Forced closure: whenever both factors of a product are mapped, the
        # product's image is determined and must stay injective.
        m[i] = v
        used[v] = True
        mapped.append(i)
        queue = [i]
        while queue:
            k = queue.pop()
            for j in list(mapped):
                for x, y in ((k, j), (j, k)):
                    ps = s[x][y]
                    pt = t[m[x]][m[y]]
                    pm = m[ps]
                    if pm == -1:
                        if used[pt] or sig_t[pt] != sig_s[ps]:
                            return False
                        m[ps] = pt
                        used[pt] = True
                        mapped.append(ps)
                        queue.append(ps)
                    elif pm != pt:
                        return False
        return True

    def unwind(checkpoint):
        while len(mapped) > checkpoint:
            j = mapped.pop()
            used[m[j]] = False
            m[j] = -1

    def extend() -> bool:
        i = next((i for i in order if m[i] == -1), -1)
        if i == -1:
            return True
        for v in cand[i]:
            if used[v]:
                continue
            checkpoint = len(mapped)
            if assign(i, v) and extend():
                return True
            unwind(checkpoint)
        return False

    return extend()


def are_isomorphic(s: CayleyTable, t: CayleyTable) -> bool:
    """Whether a bijection sigma exists with sigma(s[i][j]) = t[sigma(i)][sigma(j)]."""
    if s.n != t.n:
        return False
    return _iso_search(s.rows, _signatures(s.rows), t.rows, _signatures(t.rows))


def all_affine_forms(G: GroupSpec) -> list:
    """Every affine form (phi, psi, c) with commuting automorphisms, unquotiented."""
    if G.order > CLASSIFY_ORDER_CAP:
        raise ValueError(f"group of order {G.order} exceeds the cap {CLASSIFY_ORDER_CAP}")
    els = G.elements()
    auts = units(G.p, G.k) if isinstance(G, Cyclic) else gl2_elements(G.p)
    return [
        AffineForm(G, phi, psi, c)
        for phi in auts
        for psi in auts
        if commutes(phi, psi)
        for c in els
    ]


def _classify_bucket(indexed_rows):
    # One fingerprint bucket: greedy scan keeping the first table of each class.
    # Signatures are computed here, per bucket, so at most one bucket's are held.
    # Classes are keyed by sorted signatures, which `_iso_search` requires equal.
    classes: dict = {}  # sorted signatures -> [[first_index, rows, signatures, count], ...]
    for idx, rows in indexed_rows:
        sig = _signatures(rows)
        same = classes.setdefault(tuple(sorted(sig)), [])
        for cls in same:
            if _iso_search(rows, sig, cls[1], cls[2]):
                cls[3] += 1
                break
        else:
            same.append([idx, rows, sig, 1])
    return [(first, count) for same in classes.values() for first, _, _, count in same]


def _pool_map(fn, items: list, jobs: int) -> list:
    """[fn(x) for x in items], on min(jobs, CPU count, len(items)) processes; jobs must be >= 1."""
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    workers = min(jobs, os.cpu_count() or 1, len(items))
    if workers <= 1:
        return list(map(fn, items))
    # concurrent.futures loads its process module on first use of this name,
    # so a run that starts no pool never imports it.
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def classify(tables, jobs: int = 1) -> list:
    """Partition tables into isomorphism classes, deterministically.

    Tables are bucketed by fingerprint first; pairwise isomorphism tests run
    only within buckets, on at most `jobs` processes.  Class order is by
    first occurrence in the input, independent of the worker count.
    """
    tables = list(tables)
    n = tables[0].n if tables else 0
    if any(t.n != n for t in tables):
        raise ValueError("classify requires tables of a single order")
    if n > CLASSIFY_ORDER_CAP:
        raise ValueError(f"order {n} exceeds the classification cap {CLASSIFY_ORDER_CAP}")
    prints = [fingerprint(t) for t in tables]
    buckets: dict = {}
    for idx, fp in enumerate(prints):
        buckets.setdefault(fp, []).append((idx, tables[idx].rows))
    results = _pool_map(_classify_bucket, list(buckets.values()), jobs)
    merged = sorted(pair for bucket_classes in results for pair in bucket_classes)
    return [IsoClass(tables[first], count, prints[first]) for first, count in merged]


def assign_to_classes(classes, tables) -> list:
    """Index of the class each table belongs to; raises if one matches nothing."""
    class_sigs = [_signatures(cls.canonical_member.rows) for cls in classes]
    result = []
    for t in tables:
        fp = fingerprint(t)
        sig = _signatures(t.rows)
        for ci, cls in enumerate(classes):
            if cls.fingerprint == fp and _iso_search(
                t.rows, sig, cls.canonical_member.rows, class_sigs[ci]
            ):
                result.append(ci)
                break
        else:
            raise ValueError("table is not isomorphic to any class member")
    return result
