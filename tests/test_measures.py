"""Measure families: closed-form values, witnesses, invariances, size caps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpem.audit import _weak_pair
from kpem.factorize import classify, finest_factorization
from kpem import measures
from kpem.measures import (
    PARTITION_COUNT_CAP,
    WITNESS_TOL,
    _h_by_mask,
    _mask_table,
    _near_minimal,
    MarginalCache,
    MeasureSpec,
    evaluate_measure,
    measure_geometric_family,
    measure_min_family,
    parse_measure,
    unified_mem,
)
from kpem.partitions import Partition, count_k_fineness, iter_k_fineness, mask_parties
from kpem.qstate import (
    PARTY_CAP,
    AmplitudesFactor,
    GhzFactor,
    MaxEntFactor,
    PureState,
    StateSpec,
    SystemLayout,
    WFactor,
    apply_local_unitary,
    build_state,
    evaluate,
    haar_unitary,
    marginal_spectrum,
    random_pure,
    reduced_density,
)
from kpem.redfun import CONCURRENCE, ENTROPY, ReducedFunctionSpec, evaluate_spectrum

from conftest import density_spectrum

S2 = math.sqrt(2.0)
L3 = math.log2(3.0)
Q2 = 2.0
A5 = 0.5


def zero_qubit(label):
    return AmplitudesFactor((label,), (2,), (1.0 + 0j, 0j))


def ghz3():
    return build_state(StateSpec((GhzFactor(("A", "B", "C")),)))


def mask_of(block):
    """Party bitmask (bit i is party i) of a block of party indices."""
    return sum(1 << p for p in block)


# --- spec validation -----------------------------------------------------------


def test_measure_spec_validation():
    with pytest.raises(ValueError, match="needs a reduced function"):
        MeasureSpec("E_k", 2)
    with pytest.raises(ValueError, match="parameter-free"):
        MeasureSpec("C_k", 2, parameter=2.0)
    with pytest.raises(ValueError, match="fixes its reduced function"):
        MeasureSpec("Cq_k", 2, h=ENTROPY)
    with pytest.raises(ValueError, match="q > 1"):
        MeasureSpec("Cq_k", 2, parameter=1.0)
    with pytest.raises(ValueError, match="0 < alpha < 1"):
        MeasureSpec("CGalpha_k", 2, parameter=1.5)
    with pytest.raises(ValueError, match="k must be >= 2"):
        MeasureSpec("C_k", 1)
    with pytest.raises(ValueError, match="unknown measure kind"):
        MeasureSpec("D_k", 2)


@pytest.mark.parametrize("spec,name", [
    (MeasureSpec("E_k", 2, h=ENTROPY), "E[entropy]"),
    (MeasureSpec("E_k", 3, h=ReducedFunctionSpec("q_family", 2.0)), "E[q:2]"),
    (MeasureSpec("calE_k", 2, h=CONCURRENCE), "calE[concurrence]"),
    (MeasureSpec("Eprime_k", 4, h=ReducedFunctionSpec("alpha_family", 0.25)),
     "Eprime[alpha:0.25]"),
    (MeasureSpec("C_k", 2), "C"),
    (MeasureSpec("Cq_k", 2, parameter=2.0), "Cq(2)"),
    (MeasureSpec("Calpha_k", 5, parameter=0.5), "Calpha(0.5)"),
    (MeasureSpec("CGq_k", 2, parameter=3.5), "CGq(3.5)"),
    (MeasureSpec("CGalpha_k", 2, parameter=0.5), "CGalpha(0.5)"),
])
def test_measure_spec_name(spec, name):
    assert spec.name == name


def test_measure_spec_takes_an_integer_k():
    """Python and numpy integers give the same value; a bool, float or str
    is refused up front, never rounded up by a range or a slice."""
    psi = build_state(StateSpec((GhzFactor(("A", "B", "C")), MaxEntFactor(("D", "E")))))
    e3 = MeasureSpec("E_k", 3, h=ENTROPY)
    assert evaluate_measure(e3, psi).value == 1.5
    assert evaluate_measure(MeasureSpec("E_k", np.int64(3), h=ENTROPY), psi).value == 1.5
    for k in (2.5, 3.0, True, "3"):
        for kind, extra in (("E_k", {"h": ENTROPY}), ("C_k", {}), ("CGq_k", {"parameter": Q2})):
            with pytest.raises(ValueError, match="k must be an integer"):
                MeasureSpec(kind, k, **extra)


def test_parse_measure():
    assert parse_measure("C", 3).kind == "C_k"
    assert parse_measure("Cq:2", 2).parameter == 2.0
    assert parse_measure("Calpha:0.5", 2).kind == "Calpha_k"
    assert parse_measure("CGq:3", 2).parameter == 3.0
    assert parse_measure("CGalpha:0.25", 2).kind == "CGalpha_k"
    assert parse_measure("Eprime", 3, h=ENTROPY).kind == "Eprime_k"
    with pytest.raises(ValueError, match="needs --h"):
        parse_measure("E", 2)
    with pytest.raises(ValueError, match="cannot parse"):
        parse_measure("Xq:2", 2)


# --- unified quantities -----------------------------------------------------------


def test_unified_mem_ghz3():
    psi = ghz3()
    assert unified_mem("additive", ENTROPY, psi) == pytest.approx(1.5)
    # all three bipartitions of three parties carry entropy 1
    assert unified_mem("bipartite_sum", ENTROPY, psi) == pytest.approx(1.5)
    assert unified_mem("min_reduced", ENTROPY, psi) == pytest.approx(1.0)


def test_unified_mem_two_parties():
    bell = build_state(StateSpec((MaxEntFactor(("A", "B")),)))
    # at n = 2 the bipartite sum averages both singles: h(rho_A) itself
    assert unified_mem("bipartite_sum", ENTROPY, bell) == pytest.approx(1.0)
    assert unified_mem("additive", ENTROPY, bell) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="unknown unified kind"):
        unified_mem("geometric", ENTROPY, bell)


def test_unified_mem_w3():
    psi = build_state(StateSpec((WFactor(("A", "B", "C")),)))
    s = L3 - 2 / 3
    assert unified_mem("additive", ENTROPY, psi) == pytest.approx(1.5 * s)
    assert unified_mem("min_reduced", ENTROPY, psi) == pytest.approx(s)


# --- closed-form values -------------------------------------------------------------


def test_min_family_ghz3():
    psi = ghz3()
    cases = [
        (MeasureSpec("Eprime_k", 2, h=ENTROPY), 1.5),
        (MeasureSpec("Eprime_k", 2, h=CONCURRENCE), 1.5),
        (MeasureSpec("C_k", 2), 1.0),
        (MeasureSpec("Cq_k", 2, parameter=Q2), math.sqrt(0.5)),
        (MeasureSpec("Calpha_k", 2, parameter=A5), math.sqrt(S2 - 1)),
    ]
    for spec, want in cases:
        res = evaluate_measure(spec, psi)
        assert res.value == pytest.approx(want, abs=1e-12), spec.kind
        assert res.witness == Partition.singletons(range(3))


def test_geometric_family_closed_form():
    # one genuinely entangled triple plus a spectator: the product over all
    # ten 2-bounded partitions of 4 parties collapses to (2 h^10 / 9)^(1/20)
    psi = build_state(StateSpec((GhzFactor(("A", "B", "C")), zero_qubit("D"))))
    for kind, param, h_val in (
        ("CGq_k", Q2, 0.5),
        ("CGalpha_k", A5, S2 - 1.0),
    ):
        got = evaluate_measure(MeasureSpec(kind, 3, parameter=param), psi).value
        want = (2.0 * h_val ** 10 / 9.0) ** 0.05
        assert got == pytest.approx(want, abs=1e-12)


def test_geometric_family_brute_force_cross_check():
    # independent route: enumerate partitions by insertion, spectra via
    # reduced density matrices, plain product instead of log space
    psi = random_pure(SystemLayout.qubits("ABCD"), seed=123)
    q = 2.0
    parts = [[[0]]]
    for x in range(1, 4):
        nxt = []
        for p in parts:
            for i in range(len(p)):
                nxt.append([b + [x] if j == i else list(b) for j, b in enumerate(p)])
            nxt.append([list(b) for b in p] + [[x]])
        parts = nxt
    h = ReducedFunctionSpec("q_family", q)
    prod, count = 1.0, 0
    for blocks in parts:
        if any(len(b) > 2 for b in blocks):
            continue
        count += 1
        total = sum(evaluate(h, reduced_density(psi, b)) for b in blocks)
        prod *= total / len(blocks)
    want = prod ** (1.0 / (2.0 * count))
    got = evaluate_measure(MeasureSpec("CGq_k", 3, parameter=q), psi).value
    assert count == 10
    assert got == pytest.approx(want, abs=1e-10)


def test_geometric_zero_annihilation():
    psi = build_state(StateSpec((MaxEntFactor(("A", "B")), MaxEntFactor(("C", "D")))))
    res = evaluate_measure(MeasureSpec("CGq_k", 3, parameter=Q2), psi)
    assert res.value == 0.0
    assert res.breakdown["cardinality"] == 10


def test_vanishing_above_producibility():
    psi = build_state(StateSpec((MaxEntFactor(("A", "B")), MaxEntFactor(("C", "D")))))
    specs = [
        MeasureSpec("E_k", 3, h=ENTROPY),
        MeasureSpec("calE_k", 3, h=CONCURRENCE),
        MeasureSpec("Eprime_k", 3, h=ENTROPY),
        MeasureSpec("C_k", 3),
        MeasureSpec("Cq_k", 3, parameter=Q2),
        MeasureSpec("Calpha_k", 3, parameter=A5),
        MeasureSpec("CGq_k", 3, parameter=Q2),
        MeasureSpec("CGalpha_k", 3, parameter=A5),
    ]
    for spec in specs:
        assert evaluate_measure(spec, psi).value == 0.0, spec.kind


# --- witnesses and breakdowns ---------------------------------------------------------


def test_min_family_witness_recomputes():
    psi = build_state(StateSpec((
        GhzFactor(("A", "B", "C", "D")),
        WFactor(("E", "F", "G")),
        zero_qubit("H"),
    )))
    cache = MarginalCache(psi)
    for spec in (
        MeasureSpec("Eprime_k", 3, h=ENTROPY),
        MeasureSpec("Eprime_k", 4, h=CONCURRENCE),
        MeasureSpec("C_k", 3),
        MeasureSpec("Cq_k", 4, parameter=Q2),
    ):
        res = evaluate_measure(spec, psi)
        assert res.witness.fineness <= spec.k - 1
        assert res.witness.parties == tuple(range(8))
        terms = res.breakdown["terms"]
        total = sum(val for _, val in terms)
        assert MIN_SCORES[spec.kind](total, res.breakdown["num_blocks"]) == pytest.approx(
            res.value, abs=1e-10)
        # breakdown terms recompute from the state itself
        h = spec.reduced_function()
        for block, val in terms:
            assert cache.h_value(h, mask_of(block)) == pytest.approx(val, abs=1e-12)


def test_factor_family_witness():
    psi = build_state(StateSpec((
        GhzFactor(("A", "B", "C", "D")),
        WFactor(("E", "F", "G")),
        zero_qubit("H"),
    )))
    spec = MeasureSpec("E_k", 3, h=ENTROPY)
    res = evaluate_measure(spec, psi)
    assert res.witness.block_partition() == Partition.of([[0, 1, 2, 3], [4, 5, 6], [7]])
    sizes = {parties: val for parties, val in res.breakdown["factors"]}
    assert sizes[(0, 1, 2, 3)] == pytest.approx(2.0)
    assert sizes[(4, 5, 6)] == pytest.approx(1.5 * L3 - 1.0)
    assert sum(sizes.values()) == pytest.approx(res.value, abs=1e-12)


def test_min_family_first_witness_is_deterministic():
    psi = build_state(StateSpec((
        GhzFactor(("A", "B", "C", "D")),
        WFactor(("E", "F", "G")),
        zero_qubit("H"),
    )))
    spec = MeasureSpec("Eprime_k", 3, h=ENTROPY)
    a = evaluate_measure(spec, psi)
    b = evaluate_measure(spec, psi)
    assert a.witness == b.witness
    # first minimizer in growth-string order for this state
    assert a.witness == Partition.of([[0, 1], [2, 3], [4, 5], [6, 7]])


# --- DP and mask table against the exhaustive sweep --------------------------------

MIN_SCORES = {
    "Eprime_k": lambda total, m: 0.5 * total,
    "C_k": lambda total, m: total / m,
    "Cq_k": lambda total, m: math.sqrt(total / m),
    "Calpha_k": lambda total, m: math.sqrt(total / m),
}


def sweep_min_family(spec, psi, cache):
    """Oracle: score every partition of Gamma_{k-1} in enumeration order.
    Returns (score, (partition, terms)) of the first partition whose score
    lies within WITNESS_TOL * max(1, |V|) of the least score V."""
    h = spec.reduced_function()
    scored = []
    for part in iter_k_fineness(range(psi.num_parties), spec.k - 1):
        terms = [cache.h_value(h, mask_of(block)) for block in part.blocks]
        scored.append((MIN_SCORES[spec.kind](sum(terms), part.num_blocks), part, terms))
    least = min(score for score, _, _ in scored)
    ceiling = least + WITNESS_TOL * max(1.0, abs(least))
    return next((score, (part, terms)) for score, part, terms in scored if score <= ceiling)


def sweep_geometric_family(spec, psi, cache):
    """Oracle: (value, per-partition (block count, block sum) rows), in log space."""
    h = spec.reduced_function()
    rows = []
    for part in iter_k_fineness(range(psi.num_parties), spec.k - 1):
        rows.append((part.num_blocks,
                     sum(cache.h_value(h, mask_of(block)) for block in part.blocks)))
    if any(total <= 0.0 for _, total in rows):
        return 0.0, rows
    log_ratio = sum(math.log(total) - math.log(m) for m, total in rows)
    return math.exp(log_ratio / (2.0 * len(rows))), rows


def min_family_specs(k):
    return [
        MeasureSpec("Eprime_k", k, h=ENTROPY),
        MeasureSpec("Eprime_k", k, h=CONCURRENCE),
        MeasureSpec("Eprime_k", k, h=ReducedFunctionSpec("q_family", 3.0)),
        MeasureSpec("Eprime_k", k, h=ReducedFunctionSpec("alpha_family", 0.25)),
        MeasureSpec("C_k", k),
        MeasureSpec("Cq_k", k, parameter=Q2),
        MeasureSpec("Calpha_k", k, parameter=A5),
    ]


def geometric_specs(k):
    return [MeasureSpec("CGq_k", k, parameter=Q2), MeasureSpec("CGalpha_k", k, parameter=A5)]


def assert_min_family_matches_sweep(spec, psi, cache):
    value, (witness, terms) = sweep_min_family(spec, psi, cache)
    res = measure_min_family(spec, psi)
    assert res.witness == witness, (spec, witness, res.witness)
    assert res.value == pytest.approx(value, rel=1e-12, abs=1e-12)
    assert res.breakdown["terms"] == tuple(zip(witness.blocks, terms))
    assert res.breakdown["num_blocks"] == witness.num_blocks


def assert_geometric_matches_sweep(spec, psi, cache):
    value, rows = sweep_geometric_family(spec, psi, cache)
    res = measure_geometric_family(spec, psi)
    assert res.value == pytest.approx(value, rel=1e-12, abs=1e-12)
    assert (res.value == 0.0) == (value == 0.0)
    assert res.breakdown == {"cardinality": len(rows)}
    # row-level oracle: each column of the cached table against its partition
    table, log_blocks = _mask_table(psi.num_parties, spec.k - 1)
    assert table.shape[1] == len(rows)
    h = spec.reduced_function()
    for column, (m, want) in zip(table.T.tolist(), rows):
        blocks = [mask for mask in column if mask]
        assert len(blocks) == m
        got = sum(cache.h_value(h, mask) for mask in blocks)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert log_blocks == sum(math.log(m) for m, _ in rows)


@st.composite
def haar_states(draw):
    n = draw(st.integers(2, 7))
    dims = draw(st.lists(st.sampled_from((2, 3)), min_size=n, max_size=n))
    labels = [chr(ord("A") + i) for i in range(len(dims))]
    return random_pure(SystemLayout.of(labels, dims), seed=draw(st.integers(0, 10_000)))


@settings(max_examples=40, deadline=None)
@given(psi=haar_states(), data=st.data())
def test_min_family_dp_matches_sweep_on_haar_states(psi, data):
    cache = MarginalCache(psi)
    k = data.draw(st.integers(2, psi.num_parties), label="k")
    for spec in min_family_specs(k):
        assert_min_family_matches_sweep(spec, psi, cache)


@settings(max_examples=25, deadline=None)
@given(psi=haar_states(), data=st.data())
def test_geometric_table_matches_sweep_on_haar_states(psi, data):
    cache = MarginalCache(psi)
    k = data.draw(st.integers(2, psi.num_parties), label="k")
    for spec in geometric_specs(k):
        assert_geometric_matches_sweep(spec, psi, cache)


def test_geometric_log_sums_match_the_list_expression():
    """The geometric family's logs are summed a chunk at a time, over
    more than one chunk here (115,974 partitions), and give the bits of
    the one-list expression they replace."""
    psi = random_pure(SystemLayout.qubits("ABCDEFGHIJ"), seed=10)
    spec = MeasureSpec("CGq_k", 10, parameter=Q2)
    res = measure_geometric_family(spec, psi)
    table, log_blocks = _mask_table(10, 9)
    assert table.shape[1] > measures._LOG_CHUNK
    counts = np.count_nonzero(table, axis=0).tolist()
    assert log_blocks == sum(map(math.log, counts))
    values = np.array(measures._block_values(spec, psi, False))
    totals = sum(values[blocks] for blocks in table).tolist()
    assert min(totals) > 0.0
    want = math.exp((sum(map(math.log, totals)) - log_blocks) / (2.0 * len(totals)))
    assert res.value == want
    assert res.breakdown == {"cardinality": len(totals)}


TIE_HEAVY = {
    "ghz4": StateSpec((GhzFactor(tuple("ABCD")),)),
    "ghz6": StateSpec((GhzFactor(tuple("ABCDEF")),)),
    "w5": StateSpec((WFactor(tuple("ABCDE")),)),
    "zeros7": StateSpec(tuple(zero_qubit(lab) for lab in "ABCDEFG")),
    "bell_pairs": StateSpec((MaxEntFactor(("A", "B")), MaxEntFactor(("C", "D")),
                             MaxEntFactor(("E", "F")))),
    "ghz3_w3": StateSpec((GhzFactor(("A", "B", "C")), WFactor(("D", "E", "F")))),
    "psi": StateSpec((GhzFactor(tuple("ABCD")), WFactor(tuple("EFG")), zero_qubit("H"))),
    "phi": StateSpec((WFactor(("A", "B", "C")), MaxEntFactor(("D", "E")))),
}


@pytest.mark.parametrize("name", sorted(TIE_HEAVY))
def test_bitmask_core_matches_sweep_on_tie_heavy_states(name):
    psi = build_state(TIE_HEAVY[name])
    cache = MarginalCache(psi)
    for k in range(2, psi.num_parties + 1):
        for spec in min_family_specs(k):
            assert_min_family_matches_sweep(spec, psi, cache)
        if psi.num_parties <= 7:
            for spec in geometric_specs(k):
                assert_geometric_matches_sweep(spec, psi, cache)


@st.composite
def nudge_states(draw):
    """Haar states, and the tie-heavy all-|0>, GHZ and W states, on n <= 7."""
    family = draw(st.sampled_from(("haar", "zeros", "ghz", "w")))
    if family == "haar":
        return draw(haar_states())
    labels = tuple("ABCDEFG"[:draw(st.integers(2 if family == "zeros" else 3, 7))])
    if family == "zeros":
        return build_state(StateSpec(tuple(zero_qubit(lab) for lab in labels)))
    return build_state(StateSpec(((GhzFactor if family == "ghz" else WFactor)(labels),)))


@settings(max_examples=40, deadline=None)
@given(psi=nudge_states(), data=st.data())
def test_witness_survives_last_bit_nudges(psi, data):
    """The witness is the first partition in RGS order within WITNESS_TOL of
    the minimum, so nudging every h value by at most 1e-15 relative, far
    inside that band, never changes it."""
    n = psi.num_parties
    k = data.draw(st.integers(2, n), label="k")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    cache = MarginalCache(psi)
    for spec in min_family_specs(k):
        values = _h_by_mask(cache, spec.reduced_function(), n, k - 1)
        nudged = [v * (1.0 + e) for v, e in zip(values, rng.uniform(-1e-15, 1e-15, len(values)))]
        _, want, _ = _near_minimal(spec.kind, values, n, k - 1)
        _, got, _ = _near_minimal(spec.kind, nudged, n, k - 1)
        assert got == want, (spec, want, got)


# --- invariances ------------------------------------------------------------------------


def all_measure_specs(k):
    return [
        MeasureSpec("E_k", k, h=ENTROPY),
        MeasureSpec("E_k", k, h=CONCURRENCE),
        MeasureSpec("calE_k", k, h=ENTROPY),
        MeasureSpec("calE_k", k, h=CONCURRENCE),
        MeasureSpec("Eprime_k", k, h=ENTROPY),
        MeasureSpec("Eprime_k", k, h=CONCURRENCE),
        MeasureSpec("C_k", k),
        MeasureSpec("Cq_k", k, parameter=Q2),
        MeasureSpec("Calpha_k", k, parameter=A5),
        MeasureSpec("CGq_k", k, parameter=Q2),
        MeasureSpec("CGalpha_k", k, parameter=A5),
    ]


def test_local_unitary_invariance():
    psi = build_state(StateSpec((
        GhzFactor(("A", "B", "C")),
        MaxEntFactor(("D", "E")),
    )))
    rng = np.random.default_rng(31)
    rotated = psi
    for party in range(psi.num_parties):
        rotated = apply_local_unitary(rotated, party, haar_unitary(2, rng))
    for spec in all_measure_specs(3):
        a = evaluate_measure(spec, psi).value
        b = evaluate_measure(spec, rotated).value
        assert a == pytest.approx(b, abs=1e-9), spec.kind


def test_k_monotonicity_of_summing_families():
    psi = build_state(StateSpec((
        GhzFactor(("A", "B", "C", "D")),
        WFactor(("E", "F", "G")),
    )))
    for kind, h in (("E_k", ENTROPY), ("calE_k", ENTROPY),
                    ("Eprime_k", ENTROPY), ("Eprime_k", CONCURRENCE)):
        values = [
            evaluate_measure(MeasureSpec(kind, k, h=h), psi).value
            for k in range(2, 8)
        ]
        for lo, hi in zip(values[1:], values):
            assert lo <= hi + 1e-9


def test_ordering_chain_on_examples():
    states = [
        build_state(StateSpec((GhzFactor(("A", "B", "C")), MaxEntFactor(("D", "E"))))),
        build_state(StateSpec((WFactor(("A", "B", "C", "D")),))),
        random_pure(SystemLayout.qubits("ABCDE"), seed=5),
    ]
    for psi in states:
        for h in (ENTROPY, CONCURRENCE):
            for k in range(2, psi.num_parties + 1):
                prime = evaluate_measure(
                    MeasureSpec("Eprime_k", k, h=h), psi).value
                fact = evaluate_measure(MeasureSpec("E_k", k, h=h), psi).value
                bipart = evaluate_measure(MeasureSpec("calE_k", k, h=h), psi).value
                assert prime <= fact + 1e-9
                assert fact <= bipart + 1e-9


def test_minimal_partition_fineness_report():
    # the witness of a positive minimum is expected to use a block of the
    # full allowed size k-1; frozen for this seeded family (reported, and
    # held, rather than proved)
    from kpem.audit import random_product_spec

    hits = total = 0
    for seed in range(25):
        rng = np.random.default_rng([7, seed])
        n = int(rng.integers(3, 8))
        psi = build_state(random_product_spec(rng, n))
        for k in range(2, n + 1):
            res = evaluate_measure(MeasureSpec("Eprime_k", k, h=ENTROPY), psi)
            if res.value > 1e-9:
                total += 1
                hits += res.witness.fineness == k - 1
    assert total > 20
    assert hits == total


# --- caches and caps --------------------------------------------------------------------


def test_second_pass_takes_no_svd(cold_named_groups, svd_shapes):
    """Plain evaluate_measure calls on one state share the piece memos on
    its group vectors: a second pass of E and calE at every k, under
    entropy and concurrence, takes no SVD and gives the same values and
    witness partitions."""
    psi = build_state(StateSpec((GhzFactor(("A", "B", "C")), MaxEntFactor(("D", "E")))))
    specs = [MeasureSpec(kind, k, h=h) for h in (ENTROPY, CONCURRENCE)
             for k in range(2, 6) for kind in ("E_k", "calE_k")]
    first = [evaluate_measure(spec, psi) for spec in specs]
    assert svd_shapes
    svd_shapes.clear()
    again = [evaluate_measure(spec, psi) for spec in specs]
    assert svd_shapes == []
    assert [a.value for a in again] == [b.value for b in first]
    assert [a.witness.block_partition() for a in again] == [
        b.witness.block_partition() for b in first]


def test_engine_memo_holds_no_reference_cycle():
    """Nothing in the engine's memos refers back to a state, so with the
    cyclic collector off a state is freed as soon as its last reference
    goes, after E and the factorization (one factor, the whole state) have
    filled the memos on its group vectors."""
    import gc
    import weakref

    makers = (
        lambda: build_state(StateSpec((GhzFactor(("A", "B", "C", "D")),))),
        lambda: random_pure(SystemLayout.qubits("ABCDE"), seed=4),
    )
    enabled = gc.isenabled()
    gc.disable()
    try:
        for make in makers:
            psi = make()
            assert evaluate_measure(MeasureSpec("E_k", 2, h=ENTROPY), psi).value > 0.0
            assert finest_factorization(psi).genuine
            ref = weakref.ref(psi)
            del psi
            assert ref() is None
    finally:
        if enabled:
            gc.enable()


H_KINDS = (ENTROPY, CONCURRENCE, ReducedFunctionSpec("q_family", 3.0),
           ReducedFunctionSpec("alpha_family", 0.25))


def test_cache_h_is_h_of_the_marginal_spectrum_of_its_mask():
    """On a one-group state every h value, a complement's read from the
    shared SVD included, is evaluate_spectrum of marginal_spectrum's
    spectrum within the 1e-12 contract, for every kind of h: the engine
    sums the unpadded weights and the oracle the zero-padded ones, which
    numpy's pairwise sum may group differently in the last bit.  A mask
    and its complement read one SVD, equal halves included, so their h
    values agree bit for bit."""
    for dims in ((2, 3, 2, 4, 3), (4,) * 6, (2,) * 9, (2, 3, 3, 2)):
        psi = random_pure(SystemLayout.of("ABCDEFGHI"[:len(dims)], dims), seed=17)
        cache = MarginalCache(psi)
        (gv,) = psi.group_vectors()
        full = (1 << psi.num_parties) - 1
        for mask in range(1, full):
            lam = marginal_spectrum(psi, mask_parties(mask))
            assert gv.side(mask) == gv.side(full ^ mask), (dims, mask)
            for h in H_KINDS:
                got = cache.h_value(h, mask)
                assert abs(got - evaluate_spectrum(h, lam)) <= 1e-12, (dims, mask, h)
                assert got == cache.h_value(h, full ^ mask), (dims, mask, h)


def test_grouped_cache_matches_whole_state_spectra(grouped_family):
    """Oracle: on every mask of every grouped state, h formed from the
    pieces' spectral sums agrees within 1e-12 with h of the density route's
    spectrum of the whole amplitude vector; a union of whole groups gives
    exactly 0.0, and a subset inside one group gives h of marginal_spectrum
    (its group vector's SVD, padded) within 1e-12.  A piece and its
    complement in their group share one SVD, equal halves included, so
    their spectral sums are identical, bit for bit."""
    for name, psi in grouped_family:
        cache = MarginalCache(psi)
        for mask in range(1, 1 << psi.num_parties):
            parties = mask_parties(mask)
            lam = density_spectrum(psi, parties)
            whole_groups = all(mask & g in (0, g) for g in psi.groups)
            in_one_group = any(not mask & ~g for g in psi.groups)
            for h in H_KINDS:
                got, want = cache.h_value(h, mask), evaluate_spectrum(h, lam)
                assert abs(got - want) <= 1e-12, (name, mask, h, got, want)
                if whole_groups:
                    assert got == 0.0, (name, mask, h)
                elif in_one_group:
                    padded = evaluate_spectrum(h, marginal_spectrum(psi, parties))
                    assert abs(got - padded) <= 1e-12, (name, mask, h, got, padded)
                    (gv, local), = psi.cuts(mask)
                    rest = local ^ ((1 << len(gv.dims)) - 1)
                    assert gv.side(local) == gv.side(rest), (name, mask)
                    assert gv.piece_sums(h, local) == gv.piece_sums(h, rest), (name, mask, h)


def test_cache_svds_each_piece_once(cold_named_groups, svd_shapes):
    """One SVD per piece of a group, on the group's own vector, shared by
    every kind of h; a union of whole groups takes none, a complement in
    the group shares its piece's SVD, and a named factor's pieces share one
    SVD per size."""
    product = build_state(StateSpec((GhzFactor(("A", "B", "C")), MaxEntFactor(("D", "E")))))
    cache = MarginalCache(product)
    for h in H_KINDS:
        for mask in range(1, 1 << 5):
            cache.h_value(h, mask)
    # a GHZ3 single (whose SVD serves the pairs as complements), a Bell single
    assert sorted(svd_shapes) == [(2, 2), (2, 4)]

    svd_shapes.clear()
    again = MarginalCache(build_state(StateSpec((MaxEntFactor(("A", "B")), GhzFactor(("C", "D", "E"))))))
    for h in H_KINDS:
        for mask in range(1, 1 << 5):
            again.h_value(h, mask)
    assert svd_shapes == []  # the named groups are shared

    cache = MarginalCache(random_pure(SystemLayout.qubits("ABCD"), seed=3))
    for h in H_KINDS:
        for mask in range(1, 1 << 4):
            cache.h_value(h, mask)
    # triples read their single complement's SVD; equal halves share one
    assert sorted(svd_shapes) == [(2, 8)] * 4 + [(4, 4)] * 3


def test_purity_threshold_applies_once_to_raw_piece_sums():
    """A weak pair on AB whose piece A has purity 1 - 5e-10, times a Bell
    pair on CD.  A alone counts as pure, but on {A, C} its ~8.3e-9 bits of
    entropy add to the Bell pair's 1: a threshold applied per piece would
    give exactly 1.0 there."""
    psi = build_state(StateSpec((_weak_pair("A", "B", math.sqrt(2.5e-10)),
                                 MaxEntFactor(("C", "D")))))
    cache = MarginalCache(psi)
    lam = marginal_spectrum(psi, (0, 2))
    for h in H_KINDS:
        assert cache.h_value(h, 0b0001) == 0.0, h
        assert abs(cache.h_value(h, 0b0101) - evaluate_spectrum(h, lam)) <= 1e-12, h
    assert cache.h_value(ENTROPY, 0b0101) - 1.0 == pytest.approx(8.3e-9, rel=0.01)


def test_rank_deficient_marginal_has_no_round_off_weights():
    """The W4 pair marginal has spectrum (1/2, 1/2, 0, 0); the SVD's
    round-off singular values are floored to zero, so alpha = 0.25 reads
    2 * 0.5^0.25 - 1, not (1e-33)^0.25 above it."""
    psi = build_state(StateSpec((WFactor(("A", "B", "C", "D")),)))
    alpha = ReducedFunctionSpec("alpha_family", 0.25)
    exact = 2.0 * 0.5 ** 0.25 - 1.0
    value = evaluate_spectrum(alpha, marginal_spectrum(psi, (0, 1)))
    assert value == 0.6817928305074292
    assert abs(value - exact) <= 1e-15
    assert MarginalCache(psi).h_value(alpha, 0b0011) == value


def test_cache_gives_identical_values():
    """A value read back from a state's memo equals the same value computed
    afresh on a new state with the same amplitudes."""
    psi = random_pure(SystemLayout.qubits("ABCDE"), seed=9)
    spec = MeasureSpec("C_k", 3)
    first = evaluate_measure(spec, psi).value
    assert evaluate_measure(spec, psi).value == first
    assert evaluate_measure(spec, PureState(psi.layout, psi.amplitudes)).value == first


def ghz(n):
    return build_state(StateSpec((GhzFactor(tuple(chr(ord("A") + i) for i in range(n))),)))


def test_geometric_family_answers_under_the_count_cap():
    """Ten parties are answered whenever |Gamma_{k-1}| is under the cap: at
    k = 2 (one partition) and at k = 10 (115,974).  Every block is a proper
    marginal of GHZ, whose h is 1/2 for q = 2, so the value is sqrt(1/2)."""
    psi = ghz(10)
    assert evaluate_measure(MeasureSpec("CGq_k", 2, parameter=Q2), psi).value \
        == 0.7071067811865475
    res = evaluate_measure(MeasureSpec("CGq_k", 10, parameter=Q2), psi)
    assert res.breakdown == {"cardinality": 115_974}
    assert res.value == pytest.approx(math.sqrt(0.5), rel=0, abs=1e-12)


def test_partition_families_share_one_count_cap(monkeypatch):
    """Both families refuse |Gamma_3| = 1,680,592 on 12 parties with one
    message, and unsafe_large lifts the refusal; with the cap at 0 it is
    lifted at k = 2, where the family is one partition."""
    psi = ghz(12)
    specs = (MeasureSpec("C_k", 4), MeasureSpec("CGq_k", 4, parameter=Q2))
    messages = set()
    for spec in specs:
        with pytest.raises(ValueError) as refused:
            evaluate_measure(spec, psi)
        messages.add(str(refused.value))
    assert messages == {
        "|Gamma_3| for 12 parties exceeds 1000000; pass unsafe_large=True to override"
    }
    monkeypatch.setattr(measures, "PARTITION_COUNT_CAP", 0)
    for spec, value in ((MeasureSpec("C_k", 2), 1.0),
                        (MeasureSpec("CGq_k", 2, parameter=Q2), 0.7071067811865475)):
        with pytest.raises(ValueError, match="exceeds 0"):
            evaluate_measure(spec, psi)
        assert evaluate_measure(spec, psi, unsafe_large=True).value == pytest.approx(
            value, rel=0, abs=1e-12)


def test_unsafe_large_is_keyword_only():
    """A truthy third positional argument cannot lift the count cap: it is
    refused by every entry point that takes unsafe_large."""
    psi = ghz3()
    spec = MeasureSpec("C_k", 2)
    for measure in (evaluate_measure, measure_min_family, measure_geometric_family):
        with pytest.raises(TypeError, match="positional argument"):
            measure(spec, psi, True)


def test_allowed_mask_tables_fit_the_cache():
    """Every (n, k-1) table the caps admit fits _mask_table's cache at once,
    so it never evicts: at most its 64 entries and 130 MB, worked out from
    the counts and each table's dtype, with no table built."""
    sizes = []
    for n in range(2, PARTY_CAP + 1):
        for b in range(1, n):
            count = count_k_fineness(n, b)
            if count <= PARTITION_COUNT_CAP:
                sizes.append(count * n * np.min_scalar_type((1 << n) - 1).itemsize)
    assert len(sizes) <= _mask_table.cache_info().maxsize == 64
    assert sum(sizes) <= 130_000_000


def test_low_blocks_memo_matches_the_direct_formula():
    """For every mask of at most 8 parties and every b, the memoized
    _low_blocks is the tuple of the mask's submasks that hold its lowest
    party and at most b parties, by size, then in lexicographic order of
    their parties; it is immutable, served from a bounded cache."""
    for b in range(1, 9):
        for mask in range(1, 1 << 8):
            low = mask & -mask
            subs, sub = [], mask
            while sub:
                if sub & low and sub.bit_count() <= b:
                    subs.append(sub)
                sub = (sub - 1) & mask
            want = tuple(sorted(subs, key=lambda s: (s.bit_count(), mask_parties(s))))
            got = measures._low_blocks(mask, b)
            assert type(got) is tuple and got == want, (mask, b)
            assert measures._low_blocks(mask, b) is got
    maxsize = measures._low_blocks.cache_info().maxsize
    assert maxsize == measures._LOW_BLOCKS_CACHE and 0 < maxsize < math.inf


def test_min_family_partition_count_cap():
    psi = build_state(StateSpec(tuple(
        zero_qubit(chr(ord("A") + i)) for i in range(12)
    )))
    with pytest.raises(ValueError, match="exceeds"):
        evaluate_measure(MeasureSpec("Eprime_k", 12, h=ENTROPY), psi)


def test_k_range_checked():
    psi = ghz3()
    with pytest.raises(ValueError, match="2 <= k <= 3"):
        evaluate_measure(MeasureSpec("C_k", 4), psi)
