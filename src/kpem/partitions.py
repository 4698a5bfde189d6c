"""Set partitions of party indices and bounded-block-size families.

A partition is stored in canonical form: every block sorted ascending,
blocks ordered by their smallest member.  The family Gamma_k of all
partitions whose blocks hold at most k parties is enumerated in
restricted-growth-string lexicographic order; that order is part of the
public contract because minimizers break ties by taking the first
partition the enumerator produces.  One walk produces it: `block_masks`
builds the family as a numpy table of block bitmasks, one column per
partition, and `iter_k_fineness` reads the columns into Partition objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from numbers import Integral
from operator import mul
from typing import Iterator, Sequence

import numpy as np


def _canonical_blocks(blocks: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    return tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))


@dataclass(frozen=True)
class Partition:
    """A set partition of party indices into disjoint nonempty blocks."""

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.blocks:
            raise ValueError("partition needs at least one block")
        seen: set[int] = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block")
            for p in block:
                if p in seen:
                    raise ValueError(f"party {p} appears in more than one block")
                seen.add(p)
        canon = _canonical_blocks(self.blocks)
        if canon != self.blocks:
            object.__setattr__(self, "blocks", canon)

    @classmethod
    def _trusted(cls, blocks: tuple[tuple[int, ...], ...]) -> "Partition":
        """Wrap blocks that are already canonical, skipping validation."""
        p = object.__new__(cls)
        object.__setattr__(p, "blocks", blocks)
        return p

    @classmethod
    def of(cls, blocks: Sequence[Sequence[int]]) -> "Partition":
        return cls(tuple(tuple(b) for b in blocks))

    @property
    def parties(self) -> tuple[int, ...]:
        """All covered party indices, ascending."""
        return tuple(sorted(p for block in self.blocks for p in block))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)


def check_integer_k(k: int, least: int = 1) -> None:
    """k must be a Python or numpy integer (not a bool) of at least `least`."""
    if isinstance(k, bool) or not isinstance(k, Integral):
        raise ValueError(f"k must be an integer, got {k!r}")
    if k < least:
        raise ValueError(f"k must be >= {least}, got {k}")


def block_masks(n: int, k: int) -> np.ndarray:
    """Gamma_k of parties 0..n-1 as an (n, |Gamma_k|) array of block masks
    (bit i is party i) of dtype np.min_scalar_type(2**n - 1): column j
    holds the j-th partition's blocks by smallest member, then zeros.

    Columns come in restricted-growth-string lexicographic order, built one
    party per level: each prefix column branches into the block labels up
    to its block count whose blocks hold fewer than k parties, in order.
    """
    check_integer_k(k)
    if not 1 <= n <= 64:  # the widest mask dtype, uint64
        raise ValueError(f"block masks cover 1 to 64 parties, got {n}")
    k = min(int(k), n)
    masks = np.zeros((n, 1), dtype=np.min_scalar_type((1 << n) - 1))
    sizes = np.zeros((n, 1), dtype=np.uint8)
    masks[0], sizes[0] = 1, 1
    for i in range(1, n):
        test = (sizes[: i + 1] < k).T
        test[:, 1:] &= sizes[:i].T > 0  # of the empty blocks only the first is open
        label = np.broadcast_to(np.arange(i + 1, dtype=np.uint8), test.shape)[test]
        children = np.count_nonzero(test, axis=1)
        masks = masks.repeat(children, axis=1)
        sizes = sizes.repeat(children, axis=1)
        for j in range(i + 1):
            into = label == j
            np.bitwise_or(masks[j], 1 << i, out=masks[j], where=into)
            np.add(sizes[j], 1, out=sizes[j], where=into)
    return masks


def mask_parties(mask: int) -> tuple[int, ...]:
    """Indices of the set bits of `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def iter_k_fineness(parties: Sequence[int], k: int) -> Iterator[Partition]:
    """Yield all partitions of `parties` with blocks of at most k parties,
    in the restricted-growth-string order of `block_masks`.  The generator
    holds its family's whole table; the CLI listing stops at 200,000
    partitions."""
    idx = tuple(sorted(parties))
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate party indices")
    table = block_masks(len(idx), k)
    blocks = {m: tuple(idx[i] for i in mask_parties(m)) for m in np.unique(table).tolist()}
    for column in table.T:
        yield Partition._trusted(tuple(blocks[m] for m in column.tolist() if m))


@lru_cache(maxsize=None, typed=True)
def count_k_fineness(n: int, k: int) -> int:
    """|Gamma_k| for an n-set, by recursion on the block containing the
    first element (closed count, no enumeration), filled in bottom-up so
    that no n exhausts the interpreter's stack; the binomials of each step
    are one Pascal row, advanced by additions."""
    check_integer_k(k)
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    counts = [1]
    row = [1]  # comb(m - 1, s - 1) for s <= min(k, m) at step m
    for _ in range(n):
        counts.append(sum(map(mul, row, reversed(counts))))
        row = [a + b for a, b in zip([0] + row, row + [0])][:k]
    return counts[n]


# --- text form --------------------------------------------------------------


def partition_to_text(p: Partition, labels: Sequence[str]) -> str:
    """Blocks joined by '|', parties by label concatenation: 'AB|CD|EFG|H'."""
    return "|".join("".join(labels[i] for i in block) for block in p.blocks)


def partition_from_text(text: str, labels: Sequence[str]) -> Partition:
    """Inverse of partition_to_text; greedy longest-label match per block."""
    by_label = {lab: i for i, lab in enumerate(labels)}
    ordered = sorted(by_label, key=len, reverse=True)
    blocks: list[list[int]] = []
    for token in text.split("|"):
        if not token:
            raise ValueError(f"empty block in {text!r}")
        block: list[int] = []
        pos = 0
        while pos < len(token):
            for lab in ordered:
                if token.startswith(lab, pos):
                    block.append(by_label[lab])
                    pos += len(lab)
                    break
            else:
                raise ValueError(f"cannot match a party label at {token[pos:]!r}")
        blocks.append(block)
    return Partition.of(blocks)
