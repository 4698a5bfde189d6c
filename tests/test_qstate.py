"""State construction, indexing convention, marginals, serialization."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpem import qstate
from kpem.qstate import (
    AmplitudesFactor,
    GhzFactor,
    MarginalCache,
    MaxEntFactor,
    NumericalContractError,
    PureState,
    StateSpec,
    SystemLayout,
    WFactor,
    build_state,
    canonical_phase,
    check_size_caps,
    marginal_purity,
    permute_parties,
    random_pure,
    regroup,
    spec_from_dict,
    spec_to_dict,
)
from kpem.partitions import Partition
from kpem.redfun import ENTROPY

from oracle import (
    DensityMatrix,
    apply_local_unitary,
    clip_spectrum,
    haar_unitary,
    is_pure,
    marginal_spectrum,
    overlap_fidelity,
    purity,
    reduced_density,
    spectrum,
)


def qubits(n):
    return SystemLayout.qubits([chr(ord("A") + i) for i in range(n)])


# --- layout ---------------------------------------------------------------------


def test_layout_basics():
    lay = SystemLayout.of(("A", "B", "C"), (2, 3, 2))
    assert lay.labels == ("A", "B", "C")
    assert lay.dims == (2, 3, 2)
    assert lay.total_dim == 12
    assert lay.index_of("B") == 1
    assert lay.sub_layout([2, 0]).labels == ("A", "C")


def test_layout_rejects_duplicates_and_bad_dims():
    with pytest.raises(ValueError, match="duplicate"):
        SystemLayout.qubits(("A", "A"))
    with pytest.raises(ValueError, match="invalid dimension"):
        SystemLayout.of(("A",), (1,))


@pytest.mark.parametrize("bad", [2.7, 3.0, np.float64(2.0), "3", True, np.bool_(True), None])
def test_layout_dims_are_never_coerced(bad):
    message = "^" + re.escape("party 'B' has invalid dimension " + repr(bad)) + "$"
    with pytest.raises(ValueError, match=message):
        SystemLayout.of(("A", "B"), (2, bad))
    with pytest.raises(ValueError, match=message):
        SystemLayout((("A", 2), ("B", bad)))


@pytest.mark.parametrize("make", [
    lambda dims: SystemLayout.of(("A", "B"), dims),
    lambda dims: SystemLayout((("A", dims[0]), ("B", dims[1]))),
], ids=["of", "constructor"])
def test_both_layout_constructors_keep_one_dimension_rule(make):
    """Numpy integers are taken and stored as int, by `of` and by the
    dataclass constructor alike; a dimension below 2 is refused."""
    lay = make((np.int64(2), np.int32(3)))
    assert lay.dims == (2, 3) and [type(d) for d in lay.dims] == [int, int]
    assert lay.parties == (("A", 2), ("B", 3))
    assert lay == SystemLayout.of(("A", "B"), (2, 3))
    for low in (1, np.int64(1), 0):
        with pytest.raises(ValueError, match=f"^party 'B' has invalid dimension {int(low)}$"):
            make((2, low))


def test_layout_takes_numpy_integer_dims():
    dims = SystemLayout.of(("A", "B"), np.array([2, 3])).dims
    assert dims == (2, 3) and all(type(d) is int for d in dims)


@pytest.mark.parametrize("indices,message", [
    ([], "empty party subset"),
    ([1, 1], "duplicate party indices"),
    ([0, 3], "party index out of range for n=3"),
    ([-1], "party index out of range for n=3"),
])
def test_sub_layout_rejects_bad_indices(indices, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        SystemLayout.of(("A", "B", "C"), (2, 3, 2)).sub_layout(indices)


def test_party_wise_layouts_pass_the_checking_constructor(grouped_family, monkeypatch):
    """permute_parties, regroup and pure_restriction join or pick labels of
    a checked layout and check them no more; every layout they make on the
    grouped family is the one the checking constructor makes of its
    parties, derived fields included."""
    made = [(tag, state) for tag, state in grouped_family
            if tag.endswith(("-permuted", "-regrouped", "-restricted"))]
    assert {tag.rsplit("-", 1)[1] for tag, _ in made} == {"permuted", "regrouped", "restricted"}
    for tag, state in made:
        lay = state.layout
        ref = SystemLayout(lay.parties)
        assert lay == ref, tag
        assert (lay.labels, lay.dims, lay.total_dim) == (ref.labels, ref.dims, ref.total_dim), tag
    psi = build_state(StateSpec((MaxEntFactor(("A", "B")), WFactor(("C", "D", "E")))))
    checked = []
    monkeypatch.setattr(qstate, "_check_labels", checked.append)
    permute_parties(psi, (4, 2, 0, 1, 3))
    regroup(psi, Partition.of([[0, 2], [1, 4], [3]]))
    qstate.pure_restriction(psi, (2, 3, 4))
    assert checked == []


# the exact message of each spec build_state refuses: a dimension's type is
# checked at the layout; its value, duplicate and prefix labels at the spec
@pytest.mark.parametrize("factors,message", [
    ((GhzFactor(("A", "B"), 2.0),), "party 'A' has invalid dimension 2.0"),
    ((GhzFactor(("A", "B"), np.float64(3.0)),), "party 'A' has invalid dimension np.float64(3.0)"),
    ((AmplitudesFactor(("A", "B"), (2, 2.0), (1 + 0j, 0j, 0j, 0j)),),
     "party 'B' has invalid dimension 2.0"),
    ((GhzFactor(("A", "B"), True),), "local dimension must be >= 2, got True"),
    ((MaxEntFactor(("A", "B"), 1),), "local dimension must be >= 2, got 1"),
    ((AmplitudesFactor(("A",), (np.int64(1),), (1 + 0j,)),), "local dimension must be >= 2, got (np.int64(1),)"),
    ((GhzFactor(("A", "A")),), "label 'A' used by more than one factor"),
    ((GhzFactor(("A", "B")), WFactor(("C", "B"))), "label 'B' used by more than one factor"),
    ((GhzFactor(("A", "B")), WFactor(("AB", "C"))), "label 'A' is a prefix of label 'AB'"),
])
def test_build_state_rejects_bad_dims_and_labels(factors, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_state(StateSpec(factors))


def test_build_state_checks_each_label_once(monkeypatch):
    """The spec checks its labels; the layout build_state makes from them
    does not check them again, and takes numpy integer dimensions as ints."""
    spec = StateSpec((GhzFactor(("A", "B"), np.int64(3)), WFactor(("C", "D"))))
    checked = []
    monkeypatch.setattr(qstate, "_check_labels", checked.append)
    layout = build_state(spec).layout
    assert checked == []
    assert layout == SystemLayout.of(("A", "B", "C", "D"), (3, 3, 2, 2))
    assert all(type(d) is int for d in layout.dims) and layout.total_dim == 36


def test_layout_rejects_empty_labels():
    with pytest.raises(ValueError, match="non-empty"):
        SystemLayout.qubits(("", "B", "C"))


def test_spec_rejects_prefix_labels():
    # {A,B}|{AB} would print as AB|AB
    with pytest.raises(ValueError, match="label 'A' is a prefix of label 'AB'"):
        StateSpec((GhzFactor(("A", "AB", "B")),))
    with pytest.raises(ValueError, match="label 'Q1' is a prefix of label 'Q10'"):
        StateSpec((GhzFactor(("Q1", "Q2")), WFactor(("Q10", "Q3"))))
    StateSpec((GhzFactor(("Q01", "Q02")), WFactor(("Q10", "Q3"))))


def test_labels_reject_the_block_separator():
    # {A|, B} would print a witness A||B that partition_from_text refuses
    with pytest.raises(ValueError, match="block separator"):
        SystemLayout.qubits(("A|", "B"))
    with pytest.raises(ValueError, match="block separator"):
        StateSpec((MaxEntFactor(("A|", "B")),))


def test_layout_rejects_prefix_labels():
    # the same rule as StateSpec's, so random states cannot print {A,B}|{AB} as AB|AB
    with pytest.raises(ValueError, match="label 'A' is a prefix of label 'AB'"):
        random_pure(SystemLayout.qubits(["A", "AB", "B"]), seed=0)


def test_size_caps():
    check_size_caps(qubits(12))
    with pytest.raises(ValueError, match="parties exceeds cap"):
        check_size_caps(qubits(13))  # dim 8192 is fine, party count is not
    with pytest.raises(ValueError, match="dimension .* exceeds cap"):
        check_size_caps(SystemLayout.of(("A", "B"), (200, 200)))
    check_size_caps(qubits(13), unsafe_large=True)


def test_size_caps_come_before_any_vector(monkeypatch):
    def no_vector(f):
        raise AssertionError(f"vector built before the size caps: {f!r}")

    monkeypatch.setattr(qstate, "_factor_vector", no_vector)
    for spec in (
        StateSpec((WFactor(tuple(chr(ord("A") + i) for i in range(26))),)),
        StateSpec((GhzFactor(("A", "B"), dim=100_000),)),
    ):
        with pytest.raises(ValueError, match="exceeds cap"):
            build_state(spec)


# --- indexing convention: party 0 is the most significant digit -------------------


def test_party_zero_is_most_significant():
    # |100> on qubits ABC sits at flat index 4
    vec = np.zeros(8)
    vec[4] = 1.0
    psi = PureState(qubits(3), vec)
    rho_a = reduced_density(psi, (0,))
    assert rho_a.matrix[1, 1] == pytest.approx(1.0)
    rho_c = reduced_density(psi, (2,))
    assert rho_c.matrix[0, 0] == pytest.approx(1.0)


def test_build_ghz_qubits():
    psi = build_state(StateSpec((GhzFactor(("A", "B", "C", "D")),)))
    amp = psi.amplitudes
    assert amp[0] == pytest.approx(1 / math.sqrt(2))
    assert amp[15] == pytest.approx(1 / math.sqrt(2))
    assert np.count_nonzero(amp) == 2


def test_build_ghz_qutrits():
    psi = build_state(StateSpec((GhzFactor(("A", "B", "C"), dim=3),)))
    amp = psi.amplitudes
    # |jjj> sits at j * (9 + 3 + 1)
    for j in range(3):
        assert amp[j * 13] == pytest.approx(1 / math.sqrt(3))
    assert np.count_nonzero(amp) == 3


def test_build_w3():
    psi = build_state(StateSpec((WFactor(("A", "B", "C")),)))
    amp = psi.amplitudes
    for idx in (4, 2, 1):  # |100>, |010>, |001>
        assert amp[idx] == pytest.approx(1 / math.sqrt(3))
    assert np.count_nonzero(amp) == 3


def test_build_maxent_qutrit():
    psi = build_state(StateSpec((MaxEntFactor(("A", "B"), dim=3),)))
    for j in range(3):
        assert psi.amplitudes[j * 4] == pytest.approx(1 / math.sqrt(3))


def test_build_amplitudes_normalizes():
    psi = build_state(
        StateSpec((AmplitudesFactor(("A",), (2,), (2.0 + 0j, 0j)),))
    )
    assert psi.amplitudes[0] == pytest.approx(1.0)


@pytest.mark.parametrize("scale", [1e308, 1e-170])
def test_build_extreme_amplitude_scales(scale):
    """Finite amplitudes near the float limits normalize, without warnings,
    to the very bits of the unit-scale vector."""
    def single(x):
        return StateSpec((AmplitudesFactor(("A",), (2,), (x + 0j, x + 0j)),))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        psi = build_state(single(scale))
    assert np.array_equal(psi.amplitudes, build_state(single(1.0)).amplitudes)


def test_build_tensor_order():
    # Bell on AB then |1> on C: support on |001> and |111>
    psi = build_state(StateSpec((
        MaxEntFactor(("A", "B")),
        AmplitudesFactor(("C",), (2,), (0j, 1.0 + 0j)),
    )))
    assert psi.amplitudes[1] == pytest.approx(1 / math.sqrt(2))
    assert psi.amplitudes[7] == pytest.approx(1 / math.sqrt(2))


def test_spec_validation():
    with pytest.raises(ValueError, match="more than one factor"):
        StateSpec((GhzFactor(("A", "B")), WFactor(("B", "C"))))
    with pytest.raises(ValueError, match="exactly two"):
        StateSpec((MaxEntFactor(("A", "B", "C")),))
    with pytest.raises(ValueError, match="amplitude length"):
        StateSpec((AmplitudesFactor(("A",), (2,), (1.0 + 0j,)),))


def test_pure_state_norm_contract():
    with pytest.raises(NumericalContractError, match="norm"):
        PureState(qubits(1), np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
@pytest.mark.parametrize("named", [True, False], ids=["with-ghz", "alone"])
def test_build_state_rejects_non_finite_factor_amplitudes(bad, named):
    """An explicit factor holding NaN or inf, built through the API (the
    state-file parser rejects it first): its vector is checked where it is
    made, whether the state has one group or more, with no RuntimeWarning
    on the way (the Tier-1 tests turn those into errors)."""
    explicit = AmplitudesFactor(("C", "D"), (2, 2), (bad, 0j, 1.0 + 0j, 0j))
    spec = StateSpec((GhzFactor(("A", "B")), explicit) if named else (explicit,))
    with pytest.raises(NumericalContractError, match="non-finite"):
        build_state(spec)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_pure_state_rejects_non_finite_amplitudes(bad):
    # NaN compares false against the norm tolerance, so it needs its own check
    with pytest.raises(NumericalContractError, match="non-finite"):
        PureState(qubits(1), np.array([bad, 0.0]))


def test_density_matrix_contracts():
    with pytest.raises(NumericalContractError, match="hermiticity"):
        DensityMatrix(qubits(1), np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(NumericalContractError, match="trace"):
        DensityMatrix(qubits(1), np.eye(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_density_matrix_rejects_non_finite_entries(bad):
    # NaN passes every tolerance test, and inf - inf warns in the hermiticity test
    for m in (np.full((2, 2), bad), np.array([[bad, 0.0], [0.0, 0.5]])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalContractError, match="non-finite"):
                DensityMatrix(qubits(1), m)


def test_states_compare_and_hash_by_identity():
    psi = random_pure(qubits(3), seed=1)
    copy = PureState(psi.layout, psi.amplitudes)
    assert psi == psi and not psi == copy and psi != copy
    assert len({psi, copy, psi}) == 2
    rho = reduced_density(psi, (0,))
    assert rho == rho and rho != reduced_density(psi, (0,))
    assert hash(rho) == hash(rho)


# --- groups ------------------------------------------------------------------------


def test_groups_default_to_one_group():
    psi = random_pure(qubits(3), seed=1)
    assert psi.groups == (0b111,)


def test_the_public_constructor_makes_one_group_over_the_amplitudes():
    """PureState(layout, amplitudes) holds one group, all parties, whose
    GroupVector is the state's read-only amplitude array itself, not a
    copy of it; the caller's array is copied once."""
    amp = random_pure(SystemLayout.of("ABC", (2, 3, 2)), seed=3).amplitudes.copy()
    psi = PureState(SystemLayout.of("ABC", (2, 3, 2)), amp)
    assert psi.groups == (0b111,)
    (gv,) = psi.vectors
    assert gv.vector is psi.amplitudes
    assert gv.dims == (2, 3, 2) and not gv.symmetric
    assert not psi.amplitudes.flags.writeable and psi.amplitudes is not amp
    np.testing.assert_array_equal(psi.amplitudes, amp)
    assert psi.cuts(0b010) == [(gv, 0b010)] and psi.cuts(0b111) == []


def test_build_state_records_one_group_per_factor():
    psi = build_state(StateSpec((
        MaxEntFactor(("A", "B")), WFactor(("C", "D", "E")), GhzFactor(("F",)),
    )))
    assert psi.groups == (0b000011, 0b011100, 0b100000)


def test_party_wise_operations_carry_the_groups():
    psi = build_state(StateSpec((
        MaxEntFactor(("A", "B")), WFactor(("C", "D", "E")), GhzFactor(("F", "G")),
    )))
    # output party i is input party perm[i]
    moved = permute_parties(psi, (2, 0, 5, 1, 6, 3, 4))
    assert moved.groups == (0b1100001, 0b0001010, 0b0010100)  # by lowest party
    merged = regroup(psi, Partition.of([[0], [1, 2], [3], [4], [5], [6]]))
    assert merged.groups == (0b001111, 0b110000)
    kept = qstate.pure_restriction(psi, (0, 1, 5, 6))
    assert kept.groups == (0b0011, 0b1100)
    u = haar_unitary(2, np.random.default_rng(0))
    assert apply_local_unitary(psi, 3, u).groups == psi.groups


# --- party-wise operations ---------------------------------------------------------


def test_permute_parties():
    vec = np.zeros(4)
    vec[1] = 1.0  # |01> on AB
    psi = PureState(qubits(2), vec)
    swapped = permute_parties(psi, (1, 0))
    assert swapped.layout.labels == ("B", "A")
    assert swapped.amplitudes[2] == pytest.approx(1.0)  # |10> on BA
    with pytest.raises(ValueError, match="permutation"):
        permute_parties(psi, (0, 0))


def test_permute_preserves_marginals():
    psi = random_pure(qubits(4), seed=11)
    perm = (2, 0, 3, 1)
    moved = permute_parties(psi, perm)
    # party i of the permuted state is party perm[i] of the original
    for i, p in enumerate(perm):
        np.testing.assert_allclose(
            marginal_spectrum(moved, (i,)),
            marginal_spectrum(psi, (p,)),
            atol=1e-12,
        )


def test_regroup_ghz4():
    psi = build_state(StateSpec((GhzFactor(("A", "B", "C", "D")),)))
    grouped = regroup(psi, Partition.of([[0, 1], [2, 3]]))
    assert grouped.layout.labels == ("AB", "CD")
    assert grouped.layout.dims == (4, 4)
    amp = grouped.amplitudes
    assert amp[0] == pytest.approx(1 / math.sqrt(2))    # (0, 0)
    assert amp[15] == pytest.approx(1 / math.sqrt(2))   # (3, 3)
    assert np.count_nonzero(amp) == 2


def test_regroup_needs_full_cover():
    psi = random_pure(qubits(3), seed=3)
    with pytest.raises(ValueError, match="cover all parties"):
        regroup(psi, Partition.of([[0, 1]]))


def test_regroup_amplitude_reindexing_only():
    psi = random_pure(qubits(4), seed=5)
    grouped = regroup(psi, Partition.of([[0, 2], [1], [3]]))
    assert sorted(np.abs(grouped.amplitudes)) == pytest.approx(
        sorted(np.abs(psi.amplitudes))
    )


def test_apply_local_unitary_preserves_marginals_elsewhere():
    psi = random_pure(qubits(3), seed=7)
    u = haar_unitary(2, np.random.default_rng(0))
    rotated = apply_local_unitary(psi, 1, u)
    np.testing.assert_allclose(
        marginal_spectrum(rotated, (0,)), marginal_spectrum(psi, (0,)), atol=1e-12
    )
    np.testing.assert_allclose(
        marginal_spectrum(rotated, (1,)), marginal_spectrum(psi, (1,)), atol=1e-12
    )
    with pytest.raises(ValueError, match="unitary shape"):
        apply_local_unitary(psi, 0, np.eye(3))


def test_apply_local_unitary_refuses_a_non_unitary():
    """u = 2 I doubles the touched group's vector, which is checked: on one
    group and on a product, the contract error is raised, as the public
    constructor raises it on the doubled amplitudes."""
    product = build_state(StateSpec((MaxEntFactor(("A", "B")), WFactor(("C", "D", "E")))))
    for psi, party in ((random_pure(qubits(3), seed=7), 1), (product, 3)):
        with pytest.raises(NumericalContractError, match="^state norm 2.0"):
            apply_local_unitary(psi, party, 2 * np.eye(2))


# --- spectra ------------------------------------------------------------------------


def test_w3_pair_marginal_spectrum():
    psi = build_state(StateSpec((WFactor(("A", "B", "C")),)))
    lam = marginal_spectrum(psi, (1, 2))
    np.testing.assert_allclose(lam, [2 / 3, 1 / 3, 0.0, 0.0], atol=1e-12)


def test_marginal_spectrum_agrees_with_density_route():
    rng_seeds = range(20)
    for seed in rng_seeds:
        psi = random_pure(SystemLayout.of("ABCD", (2, 3, 2, 2)), seed=seed)
        for keep in [(0,), (1,), (0, 2), (1, 3), (0, 1, 2)]:
            a = marginal_spectrum(psi, keep)
            b = spectrum(reduced_density(psi, keep))
            np.testing.assert_allclose(a, b, atol=1e-10)


# --- the piece SVD kernel -----------------------------------------------------------


def amplitude_state(amps, dims):
    """A one-group state given as explicit amplitudes, as a state file gives it."""
    labels = tuple(chr(ord("A") + i) for i in range(len(dims)))
    return build_state(StateSpec((AmplitudesFactor(labels, tuple(dims), tuple(amps)),)))


def qubit_basis_state(n, ones):
    """Sum of the n-qubit basis states with a 1 on party i for each set of
    parties in `ones` (party 0 most significant), as complex amplitudes."""
    v = np.zeros(2 ** n, dtype=complex)
    for parties in ones:
        v[sum(1 << (n - 1 - p) for p in parties)] = 1.0
    return v


def splits_of(dims, rng):
    """Every contiguous left cut of a layout, plus one random subset per size."""
    n = len(dims)
    keeps = [tuple(range(c)) for c in range(1, n)]
    keeps += [tuple(sorted(rng.choice(n, size=c, replace=False).tolist())) for c in range(1, n)]
    return keeps


@pytest.mark.parametrize("dims,sides", [
    ((2,) * 9, {False}),             # every split of 2^9 is below the size rule
    ((2,) * 10, {False, True}),
    ((2,) * 12, {False, True}),
    ((3,) * 8, {False, True}),       # 81 x 81 is square
    ((4,) * 7, {True}),              # 4 x 4096 to 64 x 256
], ids=["qubits9", "qubits10", "qubits12", "qutrits8", "ququarts7"])
def test_svd_weights_match_the_direct_svd(dims, sides):
    rng = np.random.default_rng(len(dims) * dims[0])
    t = qstate.haar_vector(math.prod(dims), rng).reshape(dims)
    reduced = set()
    for keep in splits_of(dims, rng):
        m = qstate._split(t, keep)
        short, long = sorted(m.shape)
        reduced.add(long >= qstate._QR_ASPECT * short and short * long >= qstate._QR_SIZE)
        lam = qstate._svd_weights(t, keep)
        direct = np.linalg.svd(m, compute_uv=False) ** 2
        assert lam.shape == (short,) and not lam.flags.writeable
        np.testing.assert_allclose(lam, direct, rtol=0, atol=1e-14)
    assert reduced == sides  # which sides of the reduction rule the splits reach


@pytest.mark.parametrize("scale", [1.0, 1.0 + 1e-11], ids=["unit", "norm-off-1e-11"])
@pytest.mark.parametrize("dims", [(2, 3, 2, 4, 3), (2,) * 10, (4,) * 7],
                         ids=["mixed5", "qubits10", "ququarts7"])
def test_svd_weights_are_a_normalized_spectrum(dims, scale):
    """The weights the engine reads as they are: descending, in [0, 1],
    summing to 1 within 1e-14, min(d_keep, d_rest) of them, on either side
    of the QR reduction rule; a norm off by 1e-11, within the spectrum
    sum's tolerance, is divided out."""
    rng = np.random.default_rng(sum(dims))
    t = scale * qstate.haar_vector(math.prod(dims), rng).reshape(dims)
    for keep in splits_of(dims, rng):
        lam = qstate._svd_weights(t, keep)
        d_keep = math.prod(dims[i] for i in keep)
        assert lam.shape == (min(d_keep, t.size // d_keep),)
        assert np.all(lam[:-1] >= lam[1:])
        assert lam[-1] >= 0.0 and lam[0] <= 1.0
        assert abs(float(lam.sum()) - 1.0) <= 1e-14


@pytest.mark.parametrize("kind", ["nan", "scaled"])
def test_svd_weights_raise_off_the_spectrum_contract(kind):
    """A Haar tensor with one NaN entry, or scaled by 1.1 (weights summing
    to 1.21), fails the spectrum contract on every split."""
    t = qstate.haar_vector(24, np.random.default_rng(5)).reshape(2, 3, 4)
    if kind == "nan":
        t[0, 1, 2] = math.nan
    else:
        t *= 1.1
    for keep in [(0,), (1,), (0, 2)]:
        with pytest.raises(NumericalContractError):
            qstate._svd_weights(t, keep)


W12 = [(p,) for p in range(12)]


@pytest.mark.parametrize("ones,rank", [([()], 1), ([(), tuple(range(12))], 2), (W12, 2)],
                         ids=["zeros", "ghz", "w"])
@pytest.mark.parametrize("cut", [1, 2, 3, 5])
def test_reduced_splits_keep_the_schmidt_rank(ones, rank, cut):
    # 2 x 2048 to 32 x 128: every split is QR-reduced, and the round-off
    # rule must still make exact zeros of the weights beyond the rank
    psi = amplitude_state(qubit_basis_state(12, ones), (2,) * 12)
    assert np.count_nonzero(qstate._svd_weights(psi.tensor(), tuple(range(cut)))) == rank
    assert np.count_nonzero(marginal_spectrum(psi, tuple(range(cut)))) == rank


def test_reduced_split_of_a_product_keeps_its_rank():
    rng = np.random.default_rng(6)
    amps = np.kron(qstate.haar_vector(64, rng), qstate.haar_vector(64, rng))
    psi = amplitude_state(amps, (2,) * 12)
    # {0, 6} takes one party from each 6-qubit factor: Schmidt rank 2 x 2
    assert np.count_nonzero(qstate._svd_weights(psi.tensor(), (0, 6))) == 4


@pytest.mark.parametrize("n,keep,seen", [
    (10, (0,), (2, 2)),                   # 2 x 512: reduced to its R
    (9, (0,), (2, 256)),                  # 2 x 256: below the size rule
    (10, (0, 1, 2, 3, 4), (32, 32)),      # square: never reduced
])
def test_svd_shapes_pin_the_reduction_rule(svd_shapes, n, keep, seen):
    t = qstate.haar_vector(2 ** n, np.random.default_rng(n)).reshape((2,) * n)
    qstate._svd_weights(t, keep)
    assert svd_shapes == [seen]


def test_ghz10_calE_alpha_half_closed_form():
    from kpem.measures import evaluate_measure, parse_measure
    from kpem.redfun import parse_redfun

    psi = amplitude_state(qubit_basis_state(10, [(), tuple(range(10))]), (2,) * 10)
    value = evaluate_measure(parse_measure("calE", 3, parse_redfun("alpha:0.5")), psi).value
    # 511 bipartitions, each marginal with spectrum (1/2, 1/2)
    want = 511 * (math.sqrt(2) - 1) / 2
    assert abs(value - want) <= 1e-12 * max(1.0, abs(want))


def test_w12_marginal_entropies_closed_form():
    n = 12
    cache = MarginalCache(amplitude_state(qubit_basis_state(n, W12), (2,) * n))
    for s in range(1, n):
        p = s / n  # the marginal on s parties has spectrum (s/n, 1 - s/n)
        want = -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
        got = cache.h_value(ENTROPY, (1 << s) - 1)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_clip_spectrum():
    lam = clip_spectrum(np.array([1.0 + 5e-11, -5e-11]))
    assert lam[0] == pytest.approx(1.0)
    assert lam[1] == 0.0
    with pytest.raises(NumericalContractError, match="below floor"):
        clip_spectrum(np.array([1.0, -1e-9]))
    with pytest.raises(NumericalContractError, match="sums to"):
        clip_spectrum(np.array([0.6, 0.5]))


@pytest.mark.parametrize("raw", [[math.nan, 1.0], [1.0, math.nan], [math.nan, math.nan],
                                 [1.0, math.inf], [1.0, -math.inf]])
def test_clip_spectrum_rejects_non_finite_values(raw):
    with pytest.raises(NumericalContractError):
        clip_spectrum(np.array(raw))


def test_purity_and_is_pure():
    bell = build_state(StateSpec((MaxEntFactor(("A", "B")),)))
    rho = reduced_density(bell, (0,))
    assert purity(rho) == pytest.approx(0.5)
    assert not is_pure(rho)
    assert marginal_purity(bell, (0,)) == pytest.approx(0.5)
    prod = build_state(StateSpec((
        MaxEntFactor(("A", "B")),
        AmplitudesFactor(("C",), (2,), (1.0 + 0j, 0j)),
    )))
    assert is_pure(reduced_density(prod, (2,)))
    assert marginal_purity(prod, (0, 1)) == pytest.approx(1.0)


def test_purity_of_a_complex_density_matrix():
    """tr(rho^2) is the sum of |rho_ij|^2, not of rho_ij^2: the two differ
    once the off-diagonal entries are complex."""
    psi = random_pure(SystemLayout.of("AB", (3, 2)), seed=4)
    rho = reduced_density(psi, (0,))
    assert np.iscomplexobj(rho.matrix) and np.abs(rho.matrix.imag).max() > 0.1
    lam = np.linalg.eigvalsh(rho.matrix)
    assert purity(rho) == pytest.approx(float(np.sum(lam * lam)), abs=1e-12)
    assert purity(rho) == pytest.approx(marginal_purity(psi, (0,)), abs=1e-12)


def test_pure_restriction_takes_the_purity_rule():
    # Schmidt weights 1 - 7e-10 and 7e-10: the largest weight is within
    # PURITY_TOL of 1, but the purity, about 1 - 1.4e-9, is not
    delta = math.sqrt(7e-10 / (1 - 7e-10))
    psi = build_state(StateSpec((
        AmplitudesFactor(("A", "B"), (2, 2), (1.0 + 0j, 0j, 0j, delta + 0j)),
    )))
    assert marginal_purity(psi, (0,)) < 1.0 - qstate.PURITY_TOL
    assert qstate.pure_restriction(psi, (0,)) is None
    assert qstate.pure_restriction(psi, (0, 1)) is not None


# --- randomness ------------------------------------------------------------------


def test_random_pure_is_seed_deterministic():
    a = random_pure(qubits(3), seed=42)
    b = random_pure(qubits(3), seed=42)
    c = random_pure(qubits(3), seed=43)
    np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
    assert overlap_fidelity(a, c) < 1.0 - 1e-6


def test_haar_marginal_purity_moments():
    # Independent oracle for the 2-qubit Haar ensemble: the mean marginal
    # purity is (d1+d2)/(d1*d2+1) = 4/5, so the mean squared Bloch length
    # 2*purity - 1 comes out at 3/5.
    rng = np.random.default_rng(2024)
    lay = qubits(2)
    total = 0.0
    trials = 4000
    for _ in range(trials):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi = PureState(lay, z / np.linalg.norm(z))
        total += marginal_purity(psi, (0,))
    mean_purity = total / trials
    assert mean_purity == pytest.approx(0.8, abs=0.01)
    assert 2 * mean_purity - 1 == pytest.approx(0.6, abs=0.02)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_haar_state_normalized_and_spectrum_valid(seed):
    psi = random_pure(qubits(3), seed=seed)
    assert np.linalg.norm(psi.amplitudes) == pytest.approx(1.0)
    lam = marginal_spectrum(psi, (0, 1))
    assert lam.sum() == pytest.approx(1.0)
    assert np.all(lam >= 0.0)


# --- helpers -----------------------------------------------------------------------


def scanned_phase(vec):
    """canonical_phase by the scan alone: the first entry above 1e-12 in
    modulus made real > 0."""
    z = vec[np.flatnonzero(np.abs(vec) > 1e-12)[0]]
    return vec * (abs(z) / z)


def test_canonical_phase():
    v = np.array([0.0, 1j, 1.0])
    w = canonical_phase(v)
    assert w[1] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="zero vector"):
        canonical_phase(np.zeros(3))
    with pytest.raises(ValueError, match="zero vector"):
        canonical_phase(np.array([1e-13j, -1e-12, 0.0]))
    with pytest.raises(ValueError, match="zero vector"):
        canonical_phase(np.zeros(0, dtype=np.complex128))


@pytest.mark.parametrize("head", [0.6 - 0.8j, -1e-12, 1e-12j, 5e-13 + 5e-13j, 0.0])
def test_canonical_phase_tests_entry_zero_then_scans(head):
    """Entry 0 above the threshold is the phase reference; at or below it,
    the scan finds the first entry that is above it."""
    vec = np.array([head, 0.0, -1e-13, 0.3j, -0.2 + 0.1j])
    got = canonical_phase(vec)
    assert got.tobytes() == scanned_phase(vec).tobytes()
    ref = got[0] if abs(head) > 1e-12 else got[3]
    assert ref.real > 0 and abs(ref.imag) <= 1e-15


def test_overlap_fidelity():
    a = random_pure(qubits(2), seed=1)
    assert overlap_fidelity(a, a) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="layout mismatch"):
        overlap_fidelity(a, random_pure(qubits(3), seed=1))


# --- dictionary form ----------------------------------------------------------------


def full_spec():
    return StateSpec((
        GhzFactor(("A", "B", "C"), dim=3),
        WFactor(("D", "E", "F")),
        MaxEntFactor(("G", "H")),
        AmplitudesFactor(("I",), (2,), (0.6 + 0j, 0.8j)),
    ))


def test_spec_dict_round_trip():
    spec = full_spec()
    again = spec_from_dict(spec_to_dict(spec))
    assert again == spec
    a = build_state(spec)
    b = build_state(again)
    assert overlap_fidelity(a, b) == pytest.approx(1.0)


def test_spec_dict_rejects_unknown_fields():
    doc = spec_to_dict(full_spec())
    doc["comment"] = "nope"
    with pytest.raises(ValueError, match="unknown field"):
        spec_from_dict(doc)
    doc = spec_to_dict(full_spec())
    doc["factors"][0]["extra"] = 1
    with pytest.raises(ValueError, match=r"factors\[0\].*unknown field"):
        spec_from_dict(doc)


def test_spec_dict_rejects_malformed_factors():
    with pytest.raises(ValueError, match="unknown kind"):
        spec_from_dict({"factors": [{"kind": "bell", "labels": ["A", "B"]}]})
    with pytest.raises(ValueError, match="'re' and 'im'"):
        spec_from_dict({"factors": [{
            "kind": "amplitudes", "labels": ["A"], "dims": [2],
            "re": [1.0, 0.0], "im": [0.0],
        }]})
    with pytest.raises(ValueError, match="nonempty array"):
        spec_from_dict({"factors": []})
    with pytest.raises(ValueError, match="unknown kind"):
        spec_from_dict({"factors": [{"kind": ["ghz"], "labels": ["A", "B"]}]})


@pytest.mark.parametrize("field", ["re", "im"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, "1", True,
                                 pytest.param(10 ** 400, id="int-beyond-float")])
def test_spec_dict_rejects_non_finite_amplitudes(field, bad):
    factor = {"kind": "amplitudes", "labels": ["A"], "dims": [2],
              "re": [1.0, 0.0], "im": [0.0, 0.0]}
    factor[field][1] = bad
    with pytest.raises(ValueError, match=rf"factors\[0\]: '{field}' entries must be finite"):
        spec_from_dict({"factors": [factor]})


@pytest.mark.parametrize("re_,im,message", [
    # the first bad entry of 're', then of 'im', is named
    ([1.0, "x", math.nan], [0.0, 0.0, 0.0], "'re' entries must be finite numbers, got 'x'"),
    ([1.0, math.inf, "x"], [0.0, 0.0, 0.0], "'re' entries must be finite numbers, got inf"),
    ([1.0, 0.0, 1], [None, math.nan, 0], "'im' entries must be finite numbers, got None"),
    ([1.0, 0.0, -math.inf], [True, 0.0, 0.0], "'re' entries must be finite numbers, got -inf"),
    ([1.0, 0.0, 0.0], [0, 10 ** 400, math.nan],
     f"'im' entries must be finite numbers, got {10 ** 400!r}"),
    ([1.0, [0.0], 0.0], [0.0, 0.0, 0.0], "'re' entries must be finite numbers, got [0.0]"),
    ([1.0, np.float64(0.5), 0.0], [0.0, 0.0, 0.0],
     f"'re' entries must be finite numbers, got {np.float64(0.5)!r}"),  # not exactly a float
    ([1.0, 0.0, 0.0], [0.0, False, 0.0], "'im' entries must be finite numbers, got False"),
])
def test_spec_dict_names_the_first_bad_amplitude(re_, im, message):
    doc = {"factors": [{"kind": "amplitudes", "labels": ["A", "B"], "dims": [2, 2],
                        "re": re_ + [0.0], "im": im + [0.0]}]}
    with pytest.raises(ValueError) as info:
        spec_from_dict(doc)
    assert str(info.value) == f"factors[0]: {message}"


def test_spec_dict_amplitudes_keep_signed_zeros():
    re_ = [-0.0, 0.6, -0.0, 0.0, 1, -0.0]
    im = [-0.0, -0.0, 0.8, -0.0, 0, 2]
    spec = spec_from_dict({"factors": [{"kind": "amplitudes", "labels": ["A", "B"],
                                        "dims": [2, 3], "re": re_, "im": im}]})
    got = spec.factors[0].amplitudes
    want = tuple(complex(r, i) for r, i in zip(re_, im))

    def bits(z):
        return (math.copysign(1.0, z.real), z.real, math.copysign(1.0, z.imag), z.imag)

    assert all(type(z) is complex for z in got)
    assert [bits(z) for z in got] == [bits(z) for z in want]


@pytest.mark.parametrize("factor,field", [
    ({"kind": "ghz", "labels": ["A", "B"], "dim": 2.9}, "dim"),
    ({"kind": "ghz", "labels": ["A", "B"], "dim": True}, "dim"),
    ({"kind": "maxent", "labels": ["A", "B"], "dim": 3.0}, "dim"),
    ({"kind": "amplitudes", "labels": ["A", "B"], "dims": [2.5, 2],
      "re": [1.0, 0.0, 0.0, 0.0], "im": [0.0, 0.0, 0.0, 0.0]}, "dims"),
    ({"kind": "amplitudes", "labels": ["A"], "dims": ["2"],
      "re": [1.0, 0.0], "im": [0.0, 0.0]}, "dims"),
])
def test_spec_dict_dimensions_are_json_integers(factor, field):
    with pytest.raises(ValueError, match=f"'{field}' takes JSON integers"):
        spec_from_dict({"factors": [factor]})


json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=3)
    | st.integers() | st.integers(10 ** 300, 10 ** 400),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


@st.composite
def factor_documents(draw):
    """A valid factor object with some of its fields replaced by arbitrary JSON."""
    factor = dict(draw(st.sampled_from(spec_to_dict(full_spec())["factors"])))
    for key in draw(st.lists(st.sampled_from(("kind", "labels", "dim", "dims", "re", "im")),
                             unique=True)):
        factor[key] = draw(json_values)
    return factor


@settings(max_examples=100, deadline=None)
@given(doc=st.one_of(
    json_values,
    json_values.map(lambda factors: {"factors": factors}),
    st.lists(factor_documents(), min_size=1, max_size=3).map(lambda fs: {"factors": fs}),
))
def test_state_documents_parse_or_raise_value_error(doc):
    try:
        spec = spec_from_dict(doc)
    except ValueError:
        return
    assert isinstance(spec, StateSpec)
