"""Measure families: closed-form values, witnesses, invariances, roof bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpem.factorize import classify
from kpem.measures import (
    GEOMETRIC_PARTY_CAP,
    MarginalCache,
    MeasureSpec,
    convex_roof_upper_bound,
    evaluate_measure,
    measure_geometric_family,
    measure_min_family,
    parse_measure,
    unified_mem,
    value_from_breakdown,
)
from kpem.partitions import Partition, iter_k_fineness, mask_parties
from kpem.qstate import (
    AmplitudesFactor,
    DensityMatrix,
    GhzFactor,
    MaxEntFactor,
    StateSpec,
    SystemLayout,
    WFactor,
    apply_local_unitary,
    build_state,
    haar_unitary,
    marginal_spectrum,
    random_pure,
    reduced_density,
)
from kpem.redfun import CONCURRENCE, ENTROPY, ReducedFunctionSpec, evaluate

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
    cache = MarginalCache(psi)
    cases = [
        (MeasureSpec("Eprime_k", 2, h=ENTROPY), 1.5),
        (MeasureSpec("Eprime_k", 2, h=CONCURRENCE), 1.5),
        (MeasureSpec("C_k", 2), 1.0),
        (MeasureSpec("Cq_k", 2, parameter=Q2), math.sqrt(0.5)),
        (MeasureSpec("Calpha_k", 2, parameter=A5), math.sqrt(S2 - 1)),
    ]
    for spec, want in cases:
        res = evaluate_measure(spec, psi, cache=cache)
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
        res = evaluate_measure(spec, psi, cache=cache)
        assert res.witness.fineness <= spec.k - 1
        assert res.witness.parties == tuple(range(8))
        assert value_from_breakdown(spec, res) == pytest.approx(res.value, abs=1e-10)
        # breakdown terms recompute from the state itself
        h = spec.reduced_function()
        for block, val in res.breakdown["terms"]:
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
    assert value_from_breakdown(spec, res) == pytest.approx(res.value, abs=1e-12)


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
    Returns (value, first minimizer with its terms)."""
    h = spec.reduced_function()
    scored = []
    for part in iter_k_fineness(range(psi.num_parties), spec.k - 1):
        terms = [cache.h_value(h, mask_of(block)) for block in part.blocks]
        scored.append((MIN_SCORES[spec.kind](sum(terms), part.num_blocks), part, terms))
    best = min(score for score, _, _ in scored)
    first = next((part, terms) for score, part, terms in scored if score == best)
    return best, first


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
    res = measure_min_family(spec, psi, cache)
    assert res.witness == witness, (spec, witness, res.witness)
    assert res.value == pytest.approx(value, rel=1e-12, abs=1e-12)
    assert res.breakdown["terms"] == tuple(zip(witness.blocks, terms))
    assert res.breakdown["num_blocks"] == witness.num_blocks


def assert_geometric_matches_sweep(spec, psi, cache):
    value, rows = sweep_geometric_family(spec, psi, cache)
    res = measure_geometric_family(spec, psi, cache)
    assert res.value == pytest.approx(value, rel=1e-12, abs=1e-12)
    assert (res.value == 0.0) == (value == 0.0)
    assert res.breakdown["cardinality"] == len(rows)
    assert [m for m, _ in res.breakdown["partitions"]] == [m for m, _ in rows]
    for (_, got), (_, want) in zip(res.breakdown["partitions"], rows):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


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
    cache = MarginalCache(psi)
    for kind, h in (("E_k", ENTROPY), ("calE_k", ENTROPY),
                    ("Eprime_k", ENTROPY), ("Eprime_k", CONCURRENCE)):
        values = [
            evaluate_measure(MeasureSpec(kind, k, h=h), psi, cache=cache).value
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
        cache = MarginalCache(psi)
        for h in (ENTROPY, CONCURRENCE):
            for k in range(2, psi.num_parties + 1):
                prime = evaluate_measure(
                    MeasureSpec("Eprime_k", k, h=h), psi, cache=cache).value
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


def test_cache_must_match_state():
    a = ghz3()
    b = build_state(StateSpec((WFactor(("A", "B", "C")),)))
    with pytest.raises(ValueError, match="different state"):
        evaluate_measure(MeasureSpec("Eprime_k", 2, h=ENTROPY), a, cache=MarginalCache(b))


def test_cache_factorizes_once(monkeypatch):
    from kpem import measures

    calls = []
    original = measures.finest_factorization

    def counting(state):
        calls.append(state)
        return original(state)

    monkeypatch.setattr(measures, "finest_factorization", counting)
    psi = build_state(StateSpec((GhzFactor(("A", "B", "C")), MaxEntFactor(("D", "E")))))
    cache = MarginalCache(psi)
    for k in range(2, 6):
        for kind in ("E_k", "calE_k"):
            res = evaluate_measure(MeasureSpec(kind, k, h=ENTROPY), psi, cache=cache)
            assert res.witness is cache.factorization()
    assert calls == [psi]


def test_cache_spectrum_is_the_marginal_spectrum_of_its_mask():
    """On a one-group state every spectrum, a complement's read from the
    shared SVD included, is marginal_spectrum's bit for bit."""
    for dims in ((2, 3, 2, 4, 3), (4,) * 6, (2,) * 9):
        psi = random_pure(SystemLayout.of("ABCDEFGHI"[:len(dims)], dims), seed=17)
        cache = MarginalCache(psi)
        for mask in range(1, 1 << psi.num_parties):
            want = marginal_spectrum(psi, mask_parties(mask))
            assert np.array_equal(cache.spectrum(mask), want), (dims, mask)


def test_grouped_cache_matches_whole_state_spectra(grouped_family):
    """Oracle: on every mask of every grouped state, the spectrum formed
    from factor-local pieces has the whole-state SVD's length and agrees
    with it within 1e-12; a union of whole groups is exactly (1, 0, ...),
    and a subset inside one group is the whole-state SVD's bit for bit."""
    for name, psi in grouped_family:
        cache = MarginalCache(psi)
        for mask in range(1, 1 << psi.num_parties):
            got = cache.spectrum(mask)
            want = marginal_spectrum(psi, mask_parties(mask))
            assert got.shape == want.shape, (name, mask)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12, err_msg=f"{name} {mask}")
            if all(mask & g in (0, g) for g in psi.groups):
                assert got[0] == 1.0 and not got[1:].any(), (name, mask)
            elif any(not mask & ~g for g in psi.groups):
                assert np.array_equal(got, want), (name, mask)


def test_cache_svds_each_piece_once(monkeypatch):
    """One SVD per piece of a group; a union of whole groups takes none, and
    a complement inside the same state shares its piece's SVD."""
    from kpem import measures

    calls = []
    original = measures.marginal_spectrum

    def counting(state, keep, raw=False):
        calls.append(tuple(keep))
        return original(state, keep, raw=raw)

    monkeypatch.setattr(measures, "marginal_spectrum", counting)
    product = build_state(StateSpec((GhzFactor(("A", "B", "C")), MaxEntFactor(("D", "E")))))
    cache = MarginalCache(product)
    for mask in range(1, 1 << 5):
        cache.spectrum(mask)
    # singles, and the pairs inside the GHZ factor, each on its own
    assert sorted(calls) == [(0,), (0, 1), (0, 2), (1,), (1, 2), (2,), (3,), (4,)]

    calls.clear()
    cache = MarginalCache(random_pure(SystemLayout.qubits("ABCD"), seed=3))
    for mask in range(1, 1 << 4):
        cache.spectrum(mask)
    # triples read their single complement's SVD; equal halves take their own
    assert sorted(calls) == [(0,), (0, 1), (0, 2), (0, 3), (1,), (1, 2), (1, 3), (2,), (2, 3), (3,)]


def test_cache_gives_identical_values():
    psi = random_pure(SystemLayout.qubits("ABCDE"), seed=9)
    cache = MarginalCache(psi)
    spec = MeasureSpec("C_k", 3)
    assert evaluate_measure(spec, psi, cache=cache).value == \
        evaluate_measure(spec, psi).value


def test_geometric_party_cap():
    labels = [chr(ord("A") + i) for i in range(GEOMETRIC_PARTY_CAP + 1)]
    psi = build_state(StateSpec(tuple(zero_qubit(lab) for lab in labels)))
    with pytest.raises(ValueError, match="geometric family capped"):
        evaluate_measure(MeasureSpec("CGq_k", 2, parameter=Q2), psi)
    # k = 2 keeps the family at a single partition, so the override is cheap
    res = evaluate_measure(
        MeasureSpec("CGq_k", 2, parameter=Q2), psi, unsafe_large=True
    )
    assert res.value == 0.0


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


# --- convex roof upper bound ---------------------------------------------------------------


def test_roof_pure_input_reproduces_value():
    bell = build_state(StateSpec((MaxEntFactor(("A", "B")),)))
    rho = DensityMatrix(
        bell.layout, np.outer(bell.amplitudes, bell.amplitudes.conj())
    )
    spec = MeasureSpec("Eprime_k", 2, h=ENTROPY)
    ub = convex_roof_upper_bound(spec, rho, budget=4, seed=0)
    assert ub == pytest.approx(1.0, abs=1e-9)


def test_roof_separable_mixture_reaches_zero():
    lay = SystemLayout.qubits("AB")
    rho = DensityMatrix(lay, np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex))
    spec = MeasureSpec("Eprime_k", 2, h=ENTROPY)
    assert convex_roof_upper_bound(spec, rho, budget=10, seed=3) <= 1e-9


def test_roof_trace_is_monotone_and_seeded():
    lay = SystemLayout.qubits("AB")
    rho = DensityMatrix(lay, np.diag([0.4, 0.1, 0.1, 0.4]).astype(complex))
    spec = MeasureSpec("Eprime_k", 2, h=ENTROPY)
    best, trace = convex_roof_upper_bound(spec, rho, budget=25, seed=11,
                                          return_trace=True)
    assert best == trace[-1]
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))
    again = convex_roof_upper_bound(spec, rho, budget=25, seed=11)
    assert again == best
    with pytest.raises(ValueError, match="budget"):
        convex_roof_upper_bound(spec, rho, budget=0, seed=0)
