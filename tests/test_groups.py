"""Group vectors and the group-local marginal engine: each piece's spectrum
is taken on its own group's vector, and the memo on a GroupVector serves
every state that holds it."""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpem import cli, qstate
from kpem.audit import AuditConfig, evaluate_instance, run_suite
from kpem.factorize import finest_factorization
from kpem.measures import MEASURE_TABLE, MeasureSpec, evaluate_measure
from kpem.partitions import Partition, mask_parties
from kpem.qstate import (
    AmplitudesFactor,
    GhzFactor,
    MarginalCache,
    MaxEntFactor,
    PureState,
    StateSpec,
    SystemLayout,
    WFactor,
    build_state,
    marginal_purity,
    permute_parties,
    pure_restriction,
    regroup,
)
from kpem.redfun import (
    CONCURRENCE,
    ENTROPY,
    ReducedFunctionSpec,
    evaluate_spectrum,
    finish,
    product_sums,
    spectral_sums,
)

from conftest import density_spectrum
from oracle import _act, apply_local_unitary, check_product, haar_state, haar_unitary

H_KINDS = (ENTROPY, CONCURRENCE, ReducedFunctionSpec("q_family", 3.0),
           ReducedFunctionSpec("alpha_family", 0.25))


@st.composite
def product_specs(draw, max_parties=6):
    """A tensor product of named (GHZ, W, maxent; local dims 2-3) and Haar
    (explicit amplitudes, local dims 2-3) factors on 2 to max_parties parties."""
    factors, at = [], 0
    total = draw(st.integers(2, max_parties))
    while at < total:
        size = draw(st.integers(1, min(3, total - at)))
        labels = tuple(chr(ord("A") + at + i) for i in range(size))
        kind = draw(st.sampled_from(("ghz", "w", "maxent", "haar")))
        if kind == "ghz":
            factors.append(GhzFactor(labels, draw(st.sampled_from((2, 3)))))
        elif kind == "w" and size >= 2:
            factors.append(WFactor(labels))
        elif kind == "maxent" and size == 2:
            factors.append(MaxEntFactor(labels, draw(st.sampled_from((2, 3)))))
        else:
            dims = tuple(draw(st.lists(st.sampled_from((2, 3)), min_size=size, max_size=size)))
            rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
            layout = SystemLayout.of(labels, dims)
            factors.append(AmplitudesFactor(labels, dims, tuple(haar_state(layout, rng).amplitudes)))
        at += size
    return StateSpec(tuple(factors))


# --- build_state ------------------------------------------------------------------


def kron_amplitudes(spec):
    """build_state's amplitudes by the eager formula: the np.kron chain of
    the factors' vectors, divided by its norm."""
    ref = np.ones(1, dtype=np.complex128)
    for f in spec.factors:
        ref = np.kron(ref, qstate._factor_vector(f))
    return ref / np.linalg.norm(ref)


@settings(max_examples=60, deadline=None)
@given(spec=product_specs(max_parties=7))
def test_build_state_amplitudes_match_a_kron_chain(spec):
    """The outer-product chain forms the same products as np.kron: the
    amplitudes, formed on first read, are bit-identical to the kron
    reference."""
    assert build_state(spec).amplitudes.tobytes() == kron_amplitudes(spec).tobytes()


def test_named_factors_share_one_group_vector_per_shape():
    a = build_state(StateSpec((GhzFactor(("A", "B", "C")), MaxEntFactor(("D", "E"), 3))))
    b = build_state(StateSpec((MaxEntFactor(("A", "B"), 3), GhzFactor(("X", "Y", "Z")))))
    ga, gb = a.vectors, b.vectors
    assert ga[0] is gb[1] and ga[1] is gb[0]
    qutrits = build_state(StateSpec((GhzFactor(("A", "B", "C"), 3),)))
    assert ga[0] is not qutrits.vectors[0]
    haar = StateSpec((AmplitudesFactor(("A", "B"), (2, 2), (0.6 + 0j, 0j, 0j, 0.8 + 0j)),))
    # explicit amplitudes are never shared, so no memo is keyed by vector bytes
    first, second = (build_state(haar).vectors[0] for _ in range(2))
    assert first is not second


# --- the party-wise operations against the density oracle -------------------------


def assert_engine_matches_oracle(psi):
    """Every h and purity of the engine within 1e-12 of the density route."""
    cache = MarginalCache(psi)
    for mask in range(1, 1 << psi.num_parties):
        parties = mask_parties(mask)
        lam = density_spectrum(psi, parties)
        assert abs(marginal_purity(psi, parties) - float(np.sum(lam * lam))) <= 1e-12, mask
        for gv, local in psi.cuts(mask):  # one purity per piece, memoized on its group
            assert gv.purity(local) == spectral_sums(CONCURRENCE, gv.spectrum(local))[0]
        for h in H_KINDS:
            assert abs(cache.h_value(h, mask) - evaluate_spectrum(h, lam)) <= 1e-12, (mask, h)


def output_group(state, out_mask):
    return state.vectors[state.groups.index(out_mask)]


@settings(max_examples=30, deadline=None)
@given(spec=product_specs(), data=st.data())
def test_operations_carry_group_vectors_and_match_the_oracle(spec, data):
    psi = build_state(spec)
    n = psi.num_parties
    assert_engine_matches_oracle(psi)

    # permute: a group keeps its object when its order is kept, and a named
    # group always
    perm = data.draw(st.permutations(range(n)))
    moved = permute_parties(psi, perm)
    at = {p: i for i, p in enumerate(perm)}
    for g, gv in zip(psi.groups, psi.vectors):
        outs = [at[p] for p in mask_parties(g)]
        carried = output_group(moved, sum(1 << i for i in outs))
        assert (carried is gv) == (gv.symmetric or outs == sorted(outs))
    assert_engine_matches_oracle(moved)

    # regroup: a group that only singleton blocks meet keeps its object
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    partition = Partition.of([[p for p in range(n) if labels[p] == b]
                              for b in sorted(set(labels))])
    merged = regroup(psi, partition)
    index_of = {p: j for j, block in enumerate(partition.blocks) for p in block}
    for g, gv in zip(psi.groups, psi.vectors):
        untouched = all(len(partition.blocks[index_of[p]]) == 1 for p in mask_parties(g))
        out = next(i for i, m in enumerate(merged.groups) if m >> index_of[g.bit_length() - 1] & 1)
        assert (merged.vectors[out] is gv) == untouched
    assert_engine_matches_oracle(merged)

    # restriction to whole groups: each keeps its object, with no SVD
    if len(psi.groups) > 1:
        picked = data.draw(st.lists(st.sampled_from(psi.groups), min_size=1,
                                    max_size=len(psi.groups) - 1, unique=True))
        keep = mask_parties(sum(picked))
        rest = pure_restriction(psi, keep)
        kept = [gv for g, gv in zip(psi.groups, psi.vectors) if g in picked]
        assert len(rest.vectors) == len(kept)
        assert all(a is b for a, b in zip(rest.vectors, kept))
        assert_engine_matches_oracle(rest)


# --- states assembled from their group vectors -------------------------------------


def assert_passes_the_public_constructor(state, want):
    """The state's amplitudes (formed on this first read) pass every check
    of the public constructor and are within 1e-15 per entry of `want`,
    and its groups' claim holds: the product of its group vectors is them
    up to a global phase, within FIDELITY_TOL (oracle.check_product) and
    within 1e-12."""
    PureState(state.layout, state.amplitudes)
    check_product(state)
    assert np.max(np.abs(state.amplitudes - want)) <= 1e-15
    rec = qstate._product_vector(state.layout.dims, state.groups,
                                 [gv.vector for gv in state.vectors])
    assert abs(np.vdot(rec, state.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(spec=product_specs(max_parties=8), data=st.data())
def test_assembled_states_pass_the_public_constructor(spec, data):
    """build_state, permute_parties, regroup, apply_local_unitary and
    pure_restriction assemble their outputs from checked parts, unchecked:
    each output passes the public constructor, and its amplitudes match the
    eager formula of the operation (the kron chain, its axes reordered, u
    acting on one of its axes, the canonical phase of the kept groups'
    product) within 1e-15 per entry."""
    psi = build_state(spec)
    n = psi.num_parties
    ref = kron_amplitudes(spec)
    if len(psi.groups) > 1:
        assert psi._amplitudes is None  # not formed until read
    assert_passes_the_public_constructor(psi, ref)

    perm = data.draw(st.permutations(range(n)))
    labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    partition = Partition.of([[p for p in range(n) if labels[p] == b]
                              for b in sorted(set(labels))])
    for blocks, out in (([(p,) for p in perm], permute_parties(psi, perm)),
                        (partition.blocks, regroup(psi, partition))):
        axes = [p for block in blocks for p in block]
        assert_passes_the_public_constructor(
            out, ref.reshape(psi.layout.dims).transpose(axes).reshape(-1))

    party = data.draw(st.integers(0, n - 1))
    u = haar_unitary(psi.layout.dims[party], np.random.default_rng(data.draw(st.integers(0, 99))))
    rotated = apply_local_unitary(psi, party, u)
    assert rotated._amplitudes is None
    assert_passes_the_public_constructor(
        rotated, _act(u, ref.reshape(psi.layout.dims), party))

    if len(psi.groups) > 1:
        picked = data.draw(st.lists(st.sampled_from(psi.groups), min_size=1,
                                    max_size=len(psi.groups) - 1, unique=True))
        keep = mask_parties(sum(picked))
        kept = [(g, gv) for g, gv in zip(psi.groups, psi.vectors) if g in picked]
        local = [sum(1 << keep.index(p) for p in mask_parties(g)) for g, _ in kept]
        dims = [psi.layout.dims[p] for p in keep]
        want = qstate.canonical_phase(
            qstate._product_vector(dims, local, [gv.vector for _, gv in kept]))
        assert_passes_the_public_constructor(pure_restriction(psi, keep), want)


def per_party_cuts(state, mask):
    """state.cuts(mask) by the per-party formula: local bit i for the
    group's i-th lowest party."""
    out = []
    for g, gv in zip(state.groups, state.vectors):
        piece = mask & g
        if piece and piece != g:
            parties = mask_parties(g)
            out.append((gv, sum(1 << i for i, p in enumerate(parties) if piece >> p & 1)))
    return out


def test_bit_runs_of_a_scattered_group():
    # parties 0, 2, 5 and 6 hold local bits 0, 1, 2 and 3
    assert qstate._bit_runs(0b1100101) == ((0b1, 0), (0b100, 1), (0b1100000, 3))
    assert qstate._bit_runs(0b111000) == ((0b111000, 3),)


@settings(max_examples=30, deadline=None)
@given(spec=product_specs(max_parties=8), data=st.data())
def test_bit_run_cuts_match_the_per_party_formula(spec, data):
    """Every group build_state makes is one run of parties; a permuted copy
    scatters them, and on both every mask's cuts are the per-party ones."""
    psi = build_state(spec)
    n = psi.num_parties
    assert all(len(qstate._bit_runs(g)) == 1 for g in psi.groups)
    moved = permute_parties(psi, data.draw(st.permutations(range(n))))
    for state in (psi, moved):
        for mask in range(1, 1 << n):
            got, want = state.cuts(mask), per_party_cuts(state, mask)
            assert [local for _, local in got] == [local for _, local in want], mask
            assert all(a is b for (a, _), (b, _) in zip(got, want)), mask


@settings(max_examples=30, deadline=None)
@given(spec=product_specs(max_parties=8), data=st.data())
def test_h_value_is_finish_of_the_pieces_product_sums(spec, data):
    """h_value reads each piece's sums off its group's memo, taking them
    only on a miss: on every mask (each group empty, whole or cut) and for
    every h kind its value is finish of product_sums of the pieces'
    piece_sums, bit for bit and sign of zero included, on the groups
    build_state makes and on a permuted copy's scattered ones."""
    psi = build_state(spec)
    n = psi.num_parties
    moved = permute_parties(psi, data.draw(st.permutations(range(n))))
    for state in (psi, moved):
        cache = MarginalCache(state)
        for h in H_KINDS:
            for mask in range(1 << n):
                got = cache.h_value(h, mask)
                pieces = [gv.piece_sums(h, local) for gv, local in state.cuts(mask)]
                assert repr(got) == repr(finish(h, product_sums(h, pieces))), (mask, h)


def test_measures_never_form_the_full_vector():
    """A product state and what the party-wise operations and a local
    unitary make of it, evaluated by every measure kind at k = 2 and 3 and
    factorized: the engine reads only the group vectors, so none of these
    multi-group states ever forms its amplitude vector."""
    rng = np.random.default_rng(27)
    haar = SystemLayout.of(("D", "E"), (2, 3))
    psi = build_state(StateSpec((
        GhzFactor(("A", "B", "C")),
        AmplitudesFactor(haar.labels, haar.dims, tuple(haar_state(haar, rng).amplitudes)),
        WFactor(("F", "G", "H")),
    )))
    states = [
        psi,
        permute_parties(psi, (5, 3, 0, 7, 1, 4, 2, 6)),
        regroup(psi, Partition.of([[0, 3], [1], [2], [4], [5, 6], [7]])),
        pure_restriction(psi, (0, 1, 2, 5, 6, 7)),
        apply_local_unitary(psi, 4, haar_unitary(3, rng)),
    ]
    parameters = {None: {"h": ENTROPY}, "concurrence": {},
                  "q_family": {"parameter": 2.0}, "alpha_family": {"parameter": 0.5}}
    specs = [MeasureSpec(kind, k, **parameters[row.fixed_h])
             for kind, row in MEASURE_TABLE.items() for k in (2, 3)]
    for state in states:
        assert len(state.groups) > 1
        for spec in specs:
            evaluate_measure(spec, state)
        finest_factorization(state)
        assert state._amplitudes is None, state


def test_permuted_named_product_adds_no_svd(cold_named_groups, svd_shapes):
    """GHZ3 (x) W3 (x) Bell: once one copy is evaluated, a permuted copy
    reads every spectrum and its factorization from the shared groups."""
    psi = build_state(StateSpec((
        GhzFactor(("A", "B", "C")), WFactor(("D", "E", "F")), MaxEntFactor(("G", "H")),
    )))
    specs = [MeasureSpec(kind, k, h=h) for kind in ("E_k", "calE_k", "Eprime_k")
             for k in (2, 3) for h in (ENTROPY, CONCURRENCE)]
    before = [evaluate_measure(spec, psi).value for spec in specs]
    assert svd_shapes
    svd_shapes.clear()
    moved = permute_parties(psi, (6, 3, 0, 7, 4, 1, 5, 2))
    after = [evaluate_measure(spec, moved).value for spec in specs]
    assert not svd_shapes
    assert after == pytest.approx(before, abs=1e-12)


# --- pure_restriction ---------------------------------------------------------------


def test_pure_restriction_svds(svd_shapes):
    """Purity is the engine's one number, and the kept state is read with
    one SVD per group it cuts, none for a group kept whole."""
    zero_bell = AmplitudesFactor(("A", "B", "C"), (2, 2, 2),
                                 (2 ** -0.5 + 0j, 0j, 0j, 2 ** -0.5 + 0j, 0j, 0j, 0j, 0j))
    haar = AmplitudesFactor(("D", "E"), (2, 2), (0.5 + 0j, 0.5j, 0.5 + 0j, -0.5j))
    psi = build_state(StateSpec((zero_bell, haar)))
    svd_shapes.clear()
    whole = pure_restriction(psi, (3, 4))
    assert not svd_shapes and whole.vectors == (psi.vectors[1],)

    # |0> on A, cut out of the group ABC: one SVD for its purity, one for its vector
    kept = pure_restriction(psi, (0, 3, 4))
    assert len(svd_shapes) == 2
    assert kept.groups == (0b001, 0b110) and kept.vectors[1] is psi.vectors[1]
    np.testing.assert_allclose(np.abs(kept.amplitudes), [0.5] * 4 + [0.0] * 4, atol=1e-12)
    # a copy holding the same group finds the purity memoized on it: the
    # vector takes the only SVD
    svd_shapes.clear()
    pure_restriction(permute_parties(psi, (0, 1, 2, 3, 4)), (0,))
    assert len(svd_shapes) == 1

    # B alone is half of a Bell pair: mixed, decided on the memoized purity
    svd_shapes.clear()
    assert marginal_purity(psi, (1,)) == pytest.approx(0.5)
    assert pure_restriction(psi, (1, 3, 4)) is None
    assert len(svd_shapes) == 1


def test_factorization_reads_whole_groups_without_svd(cold_named_groups, svd_shapes):
    psi = build_state(StateSpec((
        GhzFactor(("A", "B", "C")),
        AmplitudesFactor(("D", "E"), (2, 2), (0.6 + 0j, 0.1j, 0.2 + 0j, 0.3 + 0.7j)),
    )))
    dec = finest_factorization(psi)
    assert [f.parties for f in dec.factors] == [(0, 1, 2), (3, 4)]
    # the scan's purities: a GHZ3 single, and D and E, equal halves of
    # their group, off one SVD
    assert len(svd_shapes) == 2
    assert dec.fidelity == pytest.approx(1.0, abs=1e-12)


def test_factorization_purities_are_the_concurrence_sums(monkeypatch):
    """A purity is stored once, as its piece's concurrence sums: after the
    factorization scans a 4-qubit Haar state's singles and pairs, h of
    concurrence on them forms no spectrum."""
    psi = haar_state(SystemLayout.qubits("ABCD"), np.random.default_rng(4))
    finest_factorization(psi)
    formed = []
    spectrum = qstate.GroupVector.spectrum
    monkeypatch.setattr(qstate.GroupVector, "spectrum",
                        lambda self, local: formed.append(local) or spectrum(self, local))
    masks = [1 << i | 1 << j for i in range(4) for j in range(i, 4)]
    assert len(masks) == 10
    MarginalCache(psi).h_values(CONCURRENCE, masks)
    assert formed == []


# --- replay and counts --------------------------------------------------------------


def test_replay_is_bit_identical_with_cold_and_warm_named_groups(monkeypatch):
    report = run_suite(AuditConfig(instances_per_check=3))
    variants = {v.name: v for v in AuditConfig().variants}
    replayed = 0
    for check in report.checks:
        if check.witness is None:
            continue
        variant = variants[check.variant]
        monkeypatch.setattr(qstate, "_NAMED_GROUPS", {})
        cold = evaluate_instance(variant, check.witness)
        warm = evaluate_instance(variant, check.witness)
        assert cold.margin == warm.margin == check.worst_margin, (check.axiom, check.variant)
        assert cold.values == warm.values
        replayed += 1
    assert replayed == len(report.checks)


def test_small_audit_svd_count(cold_named_groups, svd_shapes, cpus):
    """The exact SVD count of `kpem audit --trials 2`, from cold named groups,
    with every cell in this process (a worker's SVDs are not counted here)."""
    cpus(1)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["audit", "--json", "--trials", "2"]) == 0
    assert len(svd_shapes) == 376

