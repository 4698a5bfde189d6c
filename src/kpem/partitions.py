"""Set partitions of party indices, bounded-block-size families, coarsening.

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

    @classmethod
    def singletons(cls, parties: Sequence[int]) -> "Partition":
        return cls(tuple((p,) for p in sorted(parties)))

    @classmethod
    def merged(cls, parties: Sequence[int]) -> "Partition":
        return cls((tuple(sorted(parties)),))

    @property
    def parties(self) -> tuple[int, ...]:
        """All covered party indices, ascending."""
        return tuple(sorted(p for block in self.blocks for p in block))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @property
    def fineness(self) -> int:
        """Size of the largest block."""
        return max(len(b) for b in self.blocks)

    def block_of(self, party: int) -> int:
        for i, block in enumerate(self.blocks):
            if party in block:
                return i
        raise KeyError(party)

    def __le__(self, other: "Partition") -> bool:
        # refinement order: every block of self sits inside a block of other
        if self.parties != other.parties:
            return NotImplemented
        lookup = {p: i for i, b in enumerate(other.blocks) for p in b}
        return all(len({lookup[p] for p in block}) == 1 for block in self.blocks)


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


def bell_number(n: int) -> int:
    return count_k_fineness(n, max(n, 1))


# --- coarsening -------------------------------------------------------------
#
# Three ways to move down the coarsening order:
#   discard whole blocks          (type a)
#   merge blocks together         (type b)
#   drop parties inside a block   (type c, block must keep >= 1 party and
#                                  must have held >= 2 to begin with)


@dataclass(frozen=True)
class DiscardBlocks:
    blocks: tuple[int, ...]


@dataclass(frozen=True)
class MergeBlocks:
    groups: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class InnerDiscard:
    block: int
    parties: tuple[int, ...]


CoarseningOp = DiscardBlocks | MergeBlocks | InnerDiscard


def apply_coarsening(p: Partition, op: CoarseningOp) -> Partition:
    """Apply one coarsening descriptor, validating its preconditions."""
    if isinstance(op, DiscardBlocks):
        drop = set(op.blocks)
        if not drop:
            raise ValueError("nothing to discard")
        if not drop <= set(range(p.num_blocks)):
            raise ValueError(f"block index out of range: {sorted(drop)}")
        if len(drop) == p.num_blocks:
            raise ValueError("cannot discard every block")
        return Partition.of([b for i, b in enumerate(p.blocks) if i not in drop])

    if isinstance(op, MergeBlocks):
        flat = [i for g in op.groups for i in g]
        if sorted(flat) != list(range(p.num_blocks)):
            raise ValueError("groups must partition the block indices")
        if any(not g for g in op.groups):
            raise ValueError("empty merge group")
        return Partition.of(
            [tuple(q for i in g for q in p.blocks[i]) for g in op.groups]
        )

    if isinstance(op, InnerDiscard):
        if not 0 <= op.block < p.num_blocks:
            raise ValueError(f"block index out of range: {op.block}")
        target = p.blocks[op.block]
        if len(target) < 2:
            raise ValueError("inner discard needs a block of >= 2 parties")
        drop = set(op.parties)
        if not drop:
            raise ValueError("nothing to discard")
        if not drop <= set(target):
            raise ValueError("discarded parties must lie in the block")
        if drop == set(target):
            raise ValueError("cannot empty the block")
        blocks = list(p.blocks)
        blocks[op.block] = tuple(q for q in target if q not in drop)
        return Partition.of(blocks)

    raise TypeError(f"unknown coarsening op: {op!r}")


def coarsening_related(p: Partition, q: Partition) -> frozenset[str]:
    """Tags of every single-step coarsening relation taking p to q.

    Single-step means one generator application: one block discarded (a),
    one group of blocks merged (b), or one block shrunk (c).  The relation
    is strict, so (p, p) yields the empty set.
    """
    tags: set[str] = set()
    pset = set(p.blocks)
    qset = set(q.blocks)

    if qset < pset and len(qset) == len(pset) - 1:
        tags.add("a")

    if q.parties == p.parties and q.num_blocks < p.num_blocks:
        new = qset - pset
        if len(new) == 1 and pset - qset:
            merged = next(iter(new))
            absorbed = pset - qset
            if (
                len(absorbed) >= 2
                and sorted(x for b in absorbed for x in b) == sorted(merged)
            ):
                tags.add("b")

    if q.num_blocks == p.num_blocks:
        gone = pset - qset
        new = qset - pset
        if len(gone) == 1 and len(new) == 1:
            old_block = next(iter(gone))
            new_block = next(iter(new))
            if len(old_block) >= 2 and set(new_block) < set(old_block):
                tags.add("c")

    return frozenset(tags)


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
