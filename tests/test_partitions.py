"""Partition machinery: canonical form, enumeration order, counts, text form."""

from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpem.partitions import (
    Partition,
    block_masks,
    count_k_fineness,
    iter_k_fineness,
    partition_from_text,
    partition_to_text,
)
from kpem.measures import _mask_table
from kpem.qstate import SystemLayout


# --- independent oracle: plain recursive listing, no growth strings ------------


def brute_force_partitions(n: int) -> list[list[list[int]]]:
    """Every set partition of range(n), built by inserting elements one at a
    time into existing or new blocks.  Order is irrelevant; counting and
    membership are what the oracle provides."""
    parts: list[list[list[int]]] = [[]]
    for x in range(n):
        nxt = []
        for p in parts:
            for i in range(len(p)):
                nxt.append([b + [x] if j == i else list(b) for j, b in enumerate(p)])
            nxt.append([list(b) for b in p] + [[x]])
        parts = nxt
    return parts


def brute_force_count(n: int, k: int) -> int:
    return sum(
        1 for p in brute_force_partitions(n) if all(len(b) <= k for b in p)
    )


# --- canonical form ------------------------------------------------------------


def test_blocks_are_canonicalized():
    p = Partition.of([[3, 1], [0, 2]])
    assert p.blocks == ((0, 2), (1, 3))
    assert p.parties == (0, 1, 2, 3)
    assert p.num_blocks == 2


def test_equal_partitions_compare_equal():
    assert Partition.of([[1, 0], [2]]) == Partition.of([[2], [0, 1]])


def test_overlapping_blocks_rejected():
    with pytest.raises(ValueError, match="more than one block"):
        Partition.of([[0, 1], [1, 2]])


def test_empty_block_rejected():
    with pytest.raises(ValueError, match="empty block"):
        Partition.of([[0], []])


# --- enumeration ---------------------------------------------------------------


def test_growth_string_lex_order_n4_k2():
    # hand-derived: the fineness-2 subsequence of the lex-ordered growth
    # strings of length 4
    want = [
        ((0, 1), (2, 3)),
        ((0, 1), (2,), (3,)),
        ((0, 2), (1, 3)),
        ((0, 2), (1,), (3,)),
        ((0, 3), (1, 2)),
        ((0,), (1, 2), (3,)),
        ((0, 3), (1,), (2,)),
        ((0,), (1, 3), (2,)),
        ((0,), (1,), (2, 3)),
        ((0,), (1,), (2,), (3,)),
    ]
    got = [p.blocks for p in iter_k_fineness(range(4), 2)]
    assert got == want


def test_enumeration_respects_party_relabeling():
    got = [p.blocks for p in iter_k_fineness((5, 9), 2)]
    assert got == [((5, 9),), ((5,), (9,))]


def test_counts_match_brute_force():
    for n in range(1, 8):
        for k in range(1, n + 1):
            assert count_k_fineness(n, k) == brute_force_count(n, k), (n, k)


def test_count_matches_binomial_recurrence():
    # oracle: the recurrence with one comb per term
    for k in range(1, 62):
        counts = [1]
        for m in range(1, 61):
            counts.append(sum(comb(m - 1, s - 1) * counts[m - s] for s in range(1, min(k, m) + 1)))
        for n in range(61):
            assert count_k_fineness(n, k) == counts[n], (n, k)


def test_census_values():
    assert count_k_fineness(4, 2) == 10
    assert count_k_fineness(8, 2) == 764
    assert count_k_fineness(9, 2) == 2620
    assert count_k_fineness(8, 3) == 2780
    assert count_k_fineness(8, 8) == 4140
    assert count_k_fineness(9, 9) == 21147


def test_count_runs_without_deep_recursion():
    # blocks of at most two parties: the involution numbers
    # t(n) = t(n - 1) + (n - 1) t(n - 2)
    t = [1, 1]
    for n in range(2, 1501):
        t.append(t[-1] + (n - 1) * t[-2])
    assert count_k_fineness(1500, 2) == t[1500]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=6),
    k=st.integers(min_value=1, max_value=6),
)
def test_family_invariants(n, k):
    k = min(k, n)
    fam = list(iter_k_fineness(range(n), k))
    assert len(fam) == count_k_fineness(n, k)
    for p in fam:
        assert p.parties == tuple(range(n))
        assert max(map(len, p.blocks)) <= k
    assert len({p.blocks for p in fam}) == len(fam)


def test_walker_output_is_canonical():
    # iter_k_fineness skips validation, so its blocks must already be in the
    # form the validating constructor would give them
    for n in range(1, 7):
        parties = tuple(range(2 * n - 1, -1, -2))
        for k in range(1, n + 1):
            for p in iter_k_fineness(parties, k):
                assert Partition(p.blocks[::-1]).blocks == p.blocks


def test_bad_enumeration_arguments():
    with pytest.raises(ValueError):
        list(iter_k_fineness(range(3), 0))
    with pytest.raises(ValueError):
        list(iter_k_fineness([], 1))
    with pytest.raises(ValueError):
        list(iter_k_fineness([1, 1], 1))


def growth_string(blocks: list[list[int]], n: int) -> tuple[int, ...]:
    """Label each element by the block it sits in, blocks numbered in order
    of first appearance."""
    owner = {x: i for i, b in enumerate(blocks) for x in b}
    first: dict[int, int] = {}
    return tuple(first.setdefault(owner[x], len(first)) for x in range(n))


def test_enumeration_order_matches_sorted_growth_strings():
    # oracle: the brute-force listing, filtered and sorted by growth string;
    # it shares no code with the walk
    for n in range(1, 8):
        for k in range(1, n + 1):
            # brute-force blocks are ascending, so sorting them by their
            # first member gives the canonical form
            keyed = sorted(
                (growth_string(blocks, n), tuple(sorted(map(tuple, blocks))))
                for blocks in brute_force_partitions(n)
                if all(len(b) <= k for b in blocks)
            )
            want = [canon for _, canon in keyed]
            got = [p.blocks for p in iter_k_fineness(range(n), k)]
            assert got == want, (n, k)


def test_mask_table_columns_are_the_enumeration():
    for n in range(1, 10):
        for b in range(1, n + 1):
            table, _ = _mask_table(n, b)
            assert table.flags.c_contiguous and not table.flags.writeable
            assert table.dtype == np.min_scalar_type(2**n - 1)
            want = []
            for p in iter_k_fineness(range(n), b):
                col = [sum(1 << i for i in block) for block in p.blocks]
                want.append(col + [0] * (n - len(col)))
            assert table.T.tolist() == want, (n, b)


@pytest.mark.parametrize("bad", [2.5, 2.0, True, False, "2", None, np.float64(2.0)])
def test_fineness_bound_must_be_an_integer(bad):
    count_k_fineness(4, 1)  # a cached (4, 1) must not answer for True
    with pytest.raises(ValueError, match="k must be an integer"):
        list(iter_k_fineness(range(4), bad))
    with pytest.raises(ValueError, match="k must be an integer"):
        count_k_fineness(4, bad)
    with pytest.raises(ValueError, match="k must be an integer"):
        block_masks(4, bad)


def test_numpy_integer_fineness_bounds():
    for k in (np.int64(2), np.int8(2), np.uint64(2)):
        assert [p.blocks for p in iter_k_fineness(range(4), k)] == [
            p.blocks for p in iter_k_fineness(range(4), 2)
        ]
        assert count_k_fineness(4, k) == 10
        assert np.array_equal(block_masks(4, k), block_masks(4, 2))
    # a bound beyond n admits every partition
    assert block_masks(3, 10**30).shape == (3, 5)


def test_block_masks_party_bound():
    table = block_masks(64, 1)  # the singletons, in the widest mask dtype
    assert table.dtype == np.uint64 and table.shape == (64, 1)
    assert table[:, 0].tolist() == [1 << i for i in range(64)]
    for n in (0, 65):
        with pytest.raises(ValueError, match="1 to 64 parties"):
            block_masks(n, 1)
    with pytest.raises(ValueError, match="1 to 64 parties"):
        list(iter_k_fineness(range(65), 1))
    with pytest.raises(ValueError, match="k must be >= 1"):
        block_masks(3, 0)


# --- text form ---------------------------------------------------------------------


def test_partition_text_round_trip():
    labels = "ABCDEFGH"
    p = Partition.of([[0, 1], [2, 3], [4, 5, 6], [7]])
    text = partition_to_text(p, labels)
    assert text == "AB|CD|EFG|H"
    assert partition_from_text(text, labels) == p


def test_partition_text_multi_char_labels():
    labels = ("Q1", "Q10", "Q2")
    p = Partition.of([[0, 1], [2]])
    text = partition_to_text(p, labels)
    assert text == "Q1Q10|Q2"
    assert partition_from_text(text, labels) == p


def test_partition_from_text_errors():
    with pytest.raises(ValueError, match="empty block"):
        partition_from_text("A||B", "AB")
    with pytest.raises(ValueError, match="cannot match"):
        partition_from_text("AX", "AB")


@st.composite
def labelled_partitions(draw):
    """A partition with multi-character labels drawn from an alphabet that
    holds the block separator '|'."""
    labels = draw(st.lists(st.text("Aab1|", min_size=1, max_size=3), min_size=1, max_size=9))
    n = len(labels)
    assignment = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks: dict[int, list[int]] = {}
    for party, b in enumerate(assignment):
        blocks.setdefault(b, []).append(party)
    return Partition.of(list(blocks.values())), labels


@settings(max_examples=100, deadline=None)
@given(labelled_partitions())
def test_partition_text_round_trips_on_prefix_free_labels(drawn):
    """The label rule admits exactly the label sets whose text forms parse
    back: no '|' and no label a prefix of another (nor equal to it)."""
    p, labels = drawn
    admissible = not any("|" in lab for lab in labels) and not any(
        a.startswith(b) for i, a in enumerate(labels) for j, b in enumerate(labels) if i != j)
    if not admissible:
        with pytest.raises(ValueError):
            SystemLayout.qubits(labels)
        return
    SystemLayout.qubits(labels)
    assert partition_from_text(partition_to_text(p, labels), labels) == p
