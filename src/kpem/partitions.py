"""Set partitions of party indices, bounded-block-size families, coarsening.

A partition is stored in canonical form: every block sorted ascending,
blocks ordered by their smallest member.  The family Gamma_k of all
partitions whose blocks hold at most k parties is enumerated in
restricted-growth-string lexicographic order; that order is part of the
public contract because minimizers break ties by taking the first
partition the enumerator produces.  One walk produces it:
`iter_block_masks` yields each partition as block bitmasks, and
`iter_k_fineness` wraps it in Partition objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Iterator, Sequence


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


def iter_block_masks(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Yield every partition of parties 0..n-1 with blocks of at most k
    parties as a tuple of block bitmasks (bit i is party i).

    Order is restricted-growth-string lexicographic: party i is assigned a
    block id a_i with a_0 = 0 and a_i <= max(a_0..a_{i-1}) + 1, strings
    ordered lexicographically.  Blocks that already hold k parties are
    pruned during the walk, so the yielded sequence is the lex-ordered
    subsequence of the full Bell enumeration.  Blocks come in canonical
    order (by smallest member), and no Partition objects are built.
    """
    blocks: list[int] = []
    sizes: list[int] = []

    def walk(i: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(blocks)
            return
        bit = 1 << i
        for b in range(len(blocks)):
            if sizes[b] < k:
                blocks[b] |= bit
                sizes[b] += 1
                yield from walk(i + 1)
                blocks[b] ^= bit
                sizes[b] -= 1
        blocks.append(bit)
        sizes.append(1)
        yield from walk(i + 1)
        blocks.pop()
        sizes.pop()

    return walk(0)


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
    in the restricted-growth-string order of `iter_block_masks`."""
    if k < 1:
        raise ValueError(f"fineness bound must be >= 1, got {k}")
    idx = tuple(sorted(parties))
    if len(set(idx)) != len(idx):
        raise ValueError("duplicate party indices")
    n = len(idx)
    if n == 0:
        raise ValueError("no parties to partition")
    for masks in iter_block_masks(n, k):
        yield Partition._trusted(
            tuple(tuple(idx[i] for i in mask_parties(m)) for m in masks)
        )


@lru_cache(maxsize=None)
def count_k_fineness(n: int, k: int) -> int:
    """|Gamma_k| for an n-set, by recursion on the block containing the
    first element (closed count, no enumeration), filled in bottom-up so
    that no n exhausts the interpreter's stack; the binomials of each step
    are one Pascal row, advanced by additions."""
    if k < 1 or n < 0:
        raise ValueError("need n >= 0 and k >= 1")
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
