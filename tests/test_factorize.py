"""Finest tensor factorization and producibility classification."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpem import factorize, qstate
from kpem.audit import _weak_pair
from kpem.factorize import GENUINE, SINGLE, finest_factorization
from kpem.measures import MarginalCache, MeasureSpec, evaluate_measure, unified_mem
from kpem.partitions import Partition, mask_parties
from kpem.qstate import (
    LINK_TOL,
    PURITY_TOL,
    AmplitudesFactor,
    GhzFactor,
    MaxEntFactor,
    NumericalContractError,
    PureState,
    StateSpec,
    SystemLayout,
    WFactor,
    build_state,
    marginal_purity,
    permute_parties,
    pure_restriction,
    random_pure,
    _product_vector,
)
from kpem.redfun import CONCURRENCE, ENTROPY, ReducedFunctionSpec

from oracle import haar_state, purity as density_purity, reduced_density


def test_product_state_decomposition():
    psi = build_state(StateSpec((
        MaxEntFactor(("A", "B")),
        AmplitudesFactor(("C",), (2,), (1.0 + 0j, 0j)),
        GhzFactor(("D", "E", "F")),
    )))
    dec = finest_factorization(psi)
    assert [f.parties for f in dec.factors] == [(0, 1), (2,), (3, 4, 5)]
    assert [f.classification for f in dec.factors] == [GENUINE, SINGLE, GENUINE]
    assert [f.size for f in dec.factors] == [2, 1, 3]
    assert dec.producibility == 3
    assert not dec.genuine
    assert dec.fidelity == pytest.approx(1.0)
    assert dec.block_partition() == Partition.of([[0, 1], [2], [3, 4, 5]])


def test_genuinely_entangled_states():
    for spec in (
        StateSpec((GhzFactor(("A", "B", "C", "D")),)),
        StateSpec((WFactor(("A", "B", "C")),)),
    ):
        psi = build_state(spec)
        dec = finest_factorization(psi)
        assert len(dec.factors) == 1
        assert dec.genuine
        assert dec.producibility == psi.num_parties


def test_single_party_state():
    psi = build_state(StateSpec((AmplitudesFactor(("A",), (2,), (0.8 + 0j, 0.6j)),)))
    dec = finest_factorization(psi)
    assert dec.producibility == 1
    assert not dec.genuine  # a lone party carries no multiparty entanglement


def test_purity_at_the_threshold_is_pure(monkeypatch):
    """A purity of exactly 1 - PURITY_TOL counts as pure for the
    factorization's scan and for pure_restriction."""
    t = 1.0 - PURITY_TOL
    bells = AmplitudesFactor(("A", "B", "C", "D"), (2,) * 4,
                             tuple(0.5 + 0j if i in (0, 3, 12, 15) else 0j for i in range(16)))
    psi = build_state(StateSpec((bells,)))
    assert psi.groups == (0b1111,)
    for module in (factorize, qstate):
        capped = lambda state, mask, orig=module._mask_purity: min(orig(state, mask), t)  # noqa: E731
        monkeypatch.setattr(module, "_mask_purity", capped)
    assert [f.parties for f in finest_factorization(psi).factors] == [(0, 1), (2, 3)]
    assert pure_restriction(psi, (0, 1)) is not None


def test_non_contiguous_factor_found():
    # Bell pair on parties 0 and 2, a single qubit wedged at party 1
    psi = build_state(StateSpec((
        MaxEntFactor(("A", "C")),
        AmplitudesFactor(("B",), (2,), (0.6 + 0j, 0.8 + 0j)),
    )))
    wedged = permute_parties(psi, (0, 2, 1))
    assert wedged.layout.labels == ("A", "B", "C")
    dec = finest_factorization(wedged)
    assert [f.parties for f in dec.factors] == [(0, 2), (1,)]
    assert dec.producibility == 2


def test_haar_state_is_generically_genuine():
    psi = random_pure(SystemLayout.qubits("ABCD"), seed=77)
    dec = finest_factorization(psi)
    assert dec.producibility == 4
    assert dec.genuine


def test_weak_entanglement_still_counts():
    delta = 0.01
    norm = math.sqrt(1 + delta ** 2)
    psi = build_state(StateSpec((
        AmplitudesFactor(("A", "B"), (2, 2),
                         (1 / norm + 0j, 0j, 0j, delta / norm + 0j)),
    )))
    dec = finest_factorization(psi)
    assert dec.producibility == 2
    assert dec.genuine


def test_factor_states_reproduce_marginals():
    psi = build_state(StateSpec((
        WFactor(("A", "B", "C")),
        MaxEntFactor(("D", "E"), dim=3),
    )))
    dec = finest_factorization(psi)
    w_factor = dec.factors[0]
    assert w_factor.parties == (0, 1, 2)
    # the factor's own state is the exact W vector up to global phase
    w_ref = build_state(StateSpec((WFactor(("A", "B", "C")),)))
    w_state = pure_restriction(psi, w_factor.parties)
    assert abs(np.vdot(w_state.amplitudes, w_ref.amplitudes)) == pytest.approx(1.0)


def test_qudit_product():
    psi = build_state(StateSpec((
        GhzFactor(("A", "B"), dim=3),
        GhzFactor(("C", "D"), dim=2),
    )))
    dec = finest_factorization(psi)
    assert [f.parties for f in dec.factors] == [(0, 1), (2, 3)]
    assert dec.producibility == 2


def test_nan_fidelity_fails_the_contract(monkeypatch):
    psi = build_state(StateSpec((MaxEntFactor(("A", "B")),)))
    monkeypatch.setattr(factorize, "_reconstruction_fidelity", lambda *a: math.nan)
    with pytest.raises(NumericalContractError, match="fidelity nan"):
        finest_factorization(psi)


def test_pure_restriction():
    ghz = build_state(StateSpec((GhzFactor(("A", "B", "C")),)))
    assert pure_restriction(ghz, (0,)) is None
    assert pure_restriction(ghz, (1, 2)) is None

    single = (0.6 + 0j, 0.8j)
    psi = permute_parties(build_state(StateSpec((
        MaxEntFactor(("A", "C")),
        AmplitudesFactor(("B",), (2,), single),
    ))), (0, 2, 1))
    b = pure_restriction(psi, (1,))
    assert b.layout.labels == ("B",)
    assert abs(np.vdot(b.amplitudes, np.array(single))) == pytest.approx(1.0, abs=1e-12)
    ac = pure_restriction(psi, (2, 0))
    bell = build_state(StateSpec((MaxEntFactor(("A", "C")),)))
    assert ac.layout.labels == ("A", "C")
    assert abs(np.vdot(ac.amplitudes, bell.amplitudes)) == pytest.approx(1.0, abs=1e-12)


# --- the pair-linked scan against the plain scan ----------------------------------


def scan_factorization(state):
    """Reference: the size-then-lex scan over every subset of up to half the
    remaining parties, no pair links, no groups, deciding by
    marginal_purity, which is checked against the purity of the density
    matrix (qstate.purity of reduced_density) within 1e-12 on every subset
    visited.  Returns (blocks, classifications, fidelity) in the form
    finest_factorization reports them."""

    def is_pure(sub):
        purity = marginal_purity(state, sub)
        assert abs(purity - density_purity(reduced_density(state, sub))) <= 1e-12, sub
        return purity >= 1.0 - PURITY_TOL

    blocks, remaining = [], tuple(range(state.num_parties))
    while remaining:
        found = next(
            (sub for size in range(1, len(remaining) // 2 + 1)
             for sub in combinations(remaining, size)
             if is_pure(sub)),
            remaining,
        )
        blocks.append(found)
        remaining = tuple(p for p in remaining if p not in found)
    blocks.sort()
    return (
        blocks,
        [GENUINE if len(b) >= 2 else SINGLE for b in blocks],
        factorize._reconstruction_fidelity(state, blocks),
    )


def assert_matches_scan(state):
    dec = finest_factorization(state)
    got = (
        [f.parties for f in dec.factors],
        [f.classification for f in dec.factors],
        dec.fidelity,
    )
    assert got == scan_factorization(state)
    return dec


def haar_blocks(sizes, dims, seed, perm=None):
    """Product of Haar blocks of the given sizes, parties optionally permuted."""
    rng = np.random.default_rng(seed)
    factors, at = [], 0
    for size in sizes:
        labels = tuple(chr(ord("A") + at + i) for i in range(size))
        layout = SystemLayout.of(labels, dims[at:at + size])
        factors.append(AmplitudesFactor(labels, layout.dims,
                                        tuple(haar_state(layout, rng).amplitudes)))
        at += size
    psi = build_state(StateSpec(tuple(factors)))
    return psi if perm is None else permute_parties(psi, perm)


@st.composite
def planted_products(draw):
    """A tensor product of Haar blocks (local dims 2-3) under a random party
    permutation, with the blocks it was built from in output indices."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    n = sum(sizes)
    dims = draw(st.lists(st.sampled_from((2, 3)), min_size=n, max_size=n))
    perm = draw(st.permutations(range(n)))
    psi = haar_blocks(sizes, dims, draw(st.integers(0, 2**32 - 1)), perm)
    position = {p: i for i, p in enumerate(perm)}
    blocks, at = [], 0
    for size in sizes:
        blocks.append(tuple(sorted(position[p] for p in range(at, at + size))))
        at += size
    return psi, sorted(blocks)


@settings(max_examples=30, deadline=None)
@given(planted_products())
def test_planted_blocks_and_shared_engine(planted):
    psi, blocks = planted
    dec = assert_matches_scan(psi)
    assert [f.parties for f in dec.factors] == blocks
    assert dec.fidelity == pytest.approx(1.0, abs=1e-12)

    # a copy holding the same groups and vectors, with an empty engine memo
    copy = PureState._trusted(psi.layout, psi.groups, psi.vectors)
    for k in range(2, psi.num_parties + 1):
        for kind, unified in (("E_k", "additive"), ("calE_k", "bipartite_sum")):
            for h in (ENTROPY, CONCURRENCE):
                spec = MeasureSpec(kind, k, h=h)
                shared = evaluate_measure(spec, psi).value
                fresh = evaluate_measure(spec, copy).value
                # the factor-state route: each factor evaluated on its own
                per_factor = sum(
                    unified_mem(unified, h, pure_restriction(psi, f.parties))
                    for f in dec.factors if f.size >= k
                )
                tol = 1e-12 * max(1.0, abs(fresh))
                assert shared == pytest.approx(fresh, abs=tol)
                assert fresh == pytest.approx(per_factor, abs=tol)


@pytest.mark.parametrize("delta", [1e-2, 1e-3, 1e-5])
def test_linked_scan_matches_scan_on_weak_pairs(delta):
    spec = StateSpec((
        _weak_pair("A", "B", delta),
        GhzFactor(("C", "D", "E")),
        WFactor(("F", "G", "H")),
    ))
    psi = build_state(spec)
    assert_matches_scan(psi)
    assert_matches_scan(permute_parties(psi, (2, 0, 5, 3, 6, 1, 4, 7)))
    weak_pairs = build_state(StateSpec((
        _weak_pair("A", "B", delta),
        _weak_pair("C", "D", delta),
        _weak_pair("E", "F", delta),
    )))
    assert_matches_scan(permute_parties(weak_pairs, (0, 2, 4, 1, 3, 5)))


def ame_4_3(labels):
    """The 4-qutrit AME state sum_{i,j} |i>|j>|i+j>|i+2j> (mod 3), explicit."""
    amps = np.zeros(81, dtype=np.complex128)
    for i in range(3):
        for j in range(3):
            amps[27 * i + 9 * j + 3 * ((i + j) % 3) + (i + 2 * j) % 3] = 1.0 / 3.0
    return AmplitudesFactor(labels, (3, 3, 3, 3), tuple(amps))


def test_ame_factors_fall_back_to_the_full_scan():
    psi = permute_parties(
        build_state(StateSpec((ame_4_3(("A", "B", "C", "D")), ame_4_3(("E", "F", "G", "H"))))),
        (0, 4, 1, 5, 2, 6, 3, 7),
    )
    # every pair marginal of an AME state is maximally mixed: no links
    assert all(factorize._link_distance(psi, pair) <= LINK_TOL
               for pair in combinations(range(8), 2))
    dec = assert_matches_scan(psi)
    assert [f.parties for f in dec.factors] == [(0, 2, 4, 6), (1, 3, 5, 7)]


@pytest.mark.parametrize("spec", [
    StateSpec((GhzFactor(tuple("ABCDEFGH")),)),
    StateSpec((GhzFactor(tuple("ABCDEF"), dim=3),)),
    StateSpec((WFactor(tuple("ABCDEFG")),)),
    StateSpec((GhzFactor(("A", "B", "C")), WFactor(("D", "E", "F")), MaxEntFactor(("G", "H")))),
], ids=["ghz8", "ghz6-qutrits", "w7", "ghz3-w3-bell"])
def test_linked_scan_matches_scan_on_ghz_and_w(spec):
    assert_matches_scan(build_state(spec))


@pytest.mark.parametrize("sizes,dims", [
    ((12,), (2,) * 12),
    ((7,), (4,) * 7),
    ((8,), (3,) * 8),
    ((5, 4, 3), (2,) * 12),
], ids=["qubits12", "ququarts7", "qutrits8", "product12"])
def test_linked_scan_matches_scan_on_dense_shapes(sizes, dims):
    perm = tuple(np.random.default_rng(len(dims)).permutation(len(dims)))
    assert_matches_scan(haar_blocks(sizes, dims, seed=sum(dims)))
    assert_matches_scan(haar_blocks(sizes, dims, seed=sum(dims), perm=perm))


@pytest.fixture()
def scan_calls(monkeypatch):
    """Counts of the marginal purities (the scan reads each by party mask)
    and the pair link marginals a scan takes."""
    calls = {"purity": 0, "link": 0}
    purity, link = factorize._mask_purity, factorize._link_distance

    def count_purity(*args):
        calls["purity"] += 1
        return purity(*args)

    def count_link(*args):
        calls["link"] += 1
        return link(*args)

    monkeypatch.setattr(factorize, "_mask_purity", count_purity)
    monkeypatch.setattr(factorize, "_link_distance", count_link)
    return calls


def test_grouped_scan_matches_scan(grouped_family, scan_calls):
    """Scanning inside one group finds the plain scan's factors, bit for
    bit, and takes fewer marginal purities and link marginals than the same
    amplitudes as one group."""
    for name, psi in grouped_family:
        assert_matches_scan(psi)

    grouped = one_group = 0
    for name, psi in grouped_family:
        scan_calls.update(purity=0, link=0)
        finest_factorization(psi)
        grouped += scan_calls["purity"] + scan_calls["link"]
        scan_calls.update(purity=0, link=0)
        finest_factorization(PureState(psi.layout, psi.amplitudes))
        one_group += scan_calls["purity"] + scan_calls["link"]
    assert grouped < one_group


def test_carried_groups_reconstruct_the_amplitudes(grouped_family):
    """Each state is the tensor product of its groups' own states, and of
    the own vectors the factorization's fidelity check multiplies."""
    for name, psi in grouped_family:
        blocks = [mask_parties(g) for g in psi.groups]
        states = [pure_restriction(psi, b) for b in blocks]
        assert all(fs is not None for fs in states), name
        rec = _product_vector(psi.layout.dims, psi.groups, [fs.amplitudes for fs in states])
        assert abs(np.vdot(rec, psi.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-12), name
        fid = factorize._reconstruction_fidelity(psi, blocks)
        assert fid == pytest.approx(1.0, abs=1e-12), name


def test_haar_state_needs_only_singles_and_pairs(scan_calls):
    """12 single and 66 pair purities and 66 pair links, in place of the
    2,509 subsets of up to six parties the plain scan visits."""
    dec = finest_factorization(random_pure(SystemLayout.qubits("ABCDEFGHIJKL"), seed=5))
    assert dec.genuine
    assert scan_calls == {"purity": 12 + 66, "link": 66}


def test_single_party_groups_take_no_purity(scan_calls):
    dec = finest_factorization(haar_blocks((1,) * 8, (2,) * 8, seed=8))
    assert [f.parties for f in dec.factors] == [(p,) for p in range(8)]
    assert scan_calls == {"purity": 0, "link": 0}


def test_each_group_is_scanned_to_half_its_size(scan_calls):
    """Haar6 (x) |0> (x) Bell: the six-party group takes 6 singles and 15
    linked pairs, |0> nothing, and the Bell pair its 2 singles."""
    rng = np.random.default_rng(9)
    layout = SystemLayout.qubits("ABCDEF")
    psi = build_state(StateSpec((
        AmplitudesFactor(layout.labels, layout.dims, tuple(haar_state(layout, rng).amplitudes)),
        AmplitudesFactor(("G",), (2,), (1.0 + 0j, 0j)),
        MaxEntFactor(("H", "I")),
    )))
    dec = assert_matches_scan(psi)
    assert [f.parties for f in dec.factors] == [(0, 1, 2, 3, 4, 5), (6,), (7, 8)]
    assert scan_calls == {"purity": 8 + 15, "link": 15}


# --- one purity number per subset ---------------------------------------------------


def near_threshold_states(count=201):
    """Seeded 5-qubit states cos(t) |0>|q0> + sin(t) |1>|q1> (q0, q1
    orthonormal), whose party-0 purity cos^4 t + sin^4 t sits at the pure
    threshold: t is bisected to the edge of marginal_purity(state, (0,)) >=
    1 - PURITY_TOL, then swept over `count` values within 2e-8 relative."""
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2)))
    layout = SystemLayout.qubits("ABCDE")

    def state(t):
        return PureState(layout, np.concatenate([np.cos(t) * q[:, 0], np.sin(t) * q[:, 1]]))

    pure, mixed = 0.0, 1e-4
    for _ in range(60):
        t = (pure + mixed) / 2
        if marginal_purity(state(t), (0,)) >= 1.0 - PURITY_TOL:
            pure = t
        else:
            mixed = t
    return [state(pure * (1.0 + 2e-8 * x)) for x in np.linspace(-1.0, 1.0, count)]


@pytest.fixture(scope="module")
def near_threshold():
    return near_threshold_states()


def test_near_threshold_states_factorize(near_threshold):
    """Whichever side of the threshold party 0 lands on, the scan's decision
    stands: a pure party 0 is a factor, a mixed one leaves one factor."""
    for psi in near_threshold:
        dec = finest_factorization(psi)
        pure = marginal_purity(psi, (0,)) >= 1.0 - PURITY_TOL
        assert [f.parties for f in dec.factors] == ([(0,), (1, 2, 3, 4)] if pure else [(0, 1, 2, 3, 4)])


def test_one_purity_decides_pure_everywhere(grouped_family, near_threshold):
    """On every subset inside one group, marginal_purity is within 1e-12
    of the density matrix's purity, and its threshold is exactly where
    every kind of h reads 0.0 and where pure_restriction gives a state."""
    kinds = (ENTROPY, CONCURRENCE, ReducedFunctionSpec("q_family", 3.0),
             ReducedFunctionSpec("alpha_family", 0.25))
    states = [psi for _, psi in grouped_family] + near_threshold
    for psi in states:
        cache = MarginalCache(psi)
        for g in psi.groups:
            mask = g
            while mask:
                parties = mask_parties(mask)
                purity = marginal_purity(psi, parties)
                assert abs(purity - density_purity(reduced_density(psi, parties))) <= 1e-12
                pure = purity >= 1.0 - PURITY_TOL
                assert all((cache.h_value(h, mask) == 0.0) == pure for h in kinds)
                assert (pure_restriction(psi, parties) is not None) == pure
                mask = (mask - 1) & g


def test_decompositions_compare_without_raising():
    psi = build_state(StateSpec((MaxEntFactor(("A", "B")), GhzFactor(("C", "D", "E")))))
    dec, again = finest_factorization(psi), finest_factorization(psi)
    # factors hold parties and classifications only, so they compare by value
    assert dec == again and dec is not again and dec.factors[0] == again.factors[0]
    assert hash(dec) == hash(again)
