"""Integer partitions, set-partition shapes, and the block-count index E = N - p.

The enumerator and the counter deliberately use unrelated algorithms
(reverse-lexicographic successor walk vs. the Euler pentagonal-number
recurrence) so each can serve as an oracle for the other.  Both accept
n up to the fixed cap MAX_N = 40.
"""
from __future__ import annotations

from typing import Iterable

MAX_N = 40


def _check_n(n: int) -> int:
    if not isinstance(n, (int,)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if n > MAX_N:
        raise ValueError(f"n={n} exceeds the cap of {MAX_N}")
    return n


def as_partition(parts: Iterable[int]) -> tuple[int, ...]:
    """Validate a non-increasing sequence of positive integers."""
    tup = tuple(int(p) for p in parts)
    if not tup:
        raise ValueError("a partition needs at least one part")
    if any(p < 1 for p in tup):
        raise ValueError(f"all parts must be >= 1, got {tup}")
    if any(a < b for a, b in zip(tup, tup[1:])):
        raise ValueError(f"parts must be non-increasing, got {tup}")
    return tup


def enumerate_partitions(n: int) -> list[tuple[int, ...]]:
    """All integer partitions of n in reverse-lexicographic order.

    Starts at (n,) and ends at (1,)*n; each partition appears exactly once.
    """
    _check_n(n)
    out: list[tuple[int, ...]] = []
    a = [n]
    while True:
        out.append(tuple(a))
        # rightmost part that can still shrink
        k = len(a) - 1
        while k >= 0 and a[k] == 1:
            k -= 1
        if k < 0:
            return out
        trailing_ones = len(a) - k - 1
        a[k] -= 1
        budget = trailing_ones + 1
        del a[k + 1 :]
        while budget > 0:
            c = min(a[k], budget)
            a.append(c)
            budget -= c


def partition_count(n: int) -> int:
    """p(n) via the pentagonal-number recurrence (independent of the enumerator)."""
    _check_n(n)
    p = [1] + [0] * n
    for m in range(1, n + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > m:
                break
            sign = -1 if k % 2 == 0 else 1
            total += sign * p[m - g1]
            g2 = k * (3 * k + 1) // 2
            if g2 <= m:
                total += sign * p[m - g2]
            k += 1
        p[m] = total
    return p[n]


def canonical_set_partition(
    blocks: Iterable[Iterable[int]], n_qubits: int | None = None
) -> tuple[tuple[int, ...], ...]:
    """Canonicalize disjoint qubit blocks covering [0, N).

    Each block is sorted internally; blocks are ordered by their smallest
    member.  N is inferred from the union unless ``n_qubits`` pins it.
    """
    canon = tuple(sorted((tuple(sorted(int(q) for q in b)) for b in blocks), key=lambda b: b[0] if b else -1))
    if not canon or any(not b for b in canon):
        raise ValueError("blocks must be nonempty")
    flat = [q for b in canon for q in b]
    n = len(flat)
    if n_qubits is not None and n != n_qubits:
        raise ValueError(f"blocks cover {n} qubits, expected {n_qubits}")
    if sorted(flat) != list(range(n)):
        raise ValueError(f"blocks must be disjoint and cover 0..{n - 1}, got {canon}")
    return canon


def shape_of(blocks: Iterable[Iterable[int]]) -> tuple[int, ...]:
    """Block sizes of a set partition, sorted non-increasing."""
    canon = canonical_set_partition(blocks)
    return tuple(sorted((len(b) for b in canon), reverse=True))


def index_of(parts: Iterable[int]) -> int:
    """The index E = N - p of a partition (equivalently sum of part-1 terms)."""
    tup = as_partition(parts)
    return sum(tup) - len(tup)


def class_spectrum(n: int) -> set[int]:
    """Set of index values over all partitions of n; always {0, ..., n-1}."""
    return {index_of(parts) for parts in enumerate_partitions(n)}
