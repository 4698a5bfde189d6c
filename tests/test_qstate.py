"""State construction, indexing convention, marginals, serialization."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpem import qstate
from kpem.qstate import (
    AmplitudesFactor,
    DensityMatrix,
    GhzFactor,
    MaxEntFactor,
    NumericalContractError,
    PureState,
    StateSpec,
    SystemLayout,
    WFactor,
    apply_local_unitary,
    build_state,
    canonical_phase,
    check_size_caps,
    clip_spectrum,
    haar_unitary,
    is_pure,
    marginal_purity,
    marginal_spectrum,
    overlap_fidelity,
    permute_parties,
    purity,
    random_pure,
    reduced_density,
    regroup,
    spec_from_dict,
    spec_to_dict,
    spectrum,
)
from kpem.partitions import Partition


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


# --- groups ------------------------------------------------------------------------


def test_groups_default_to_one_group():
    psi = random_pure(qubits(3), seed=1)
    assert psi.groups == (0b111,)
    assert PureState(qubits(3), psi.amplitudes, groups=(0b100, 0b011)).groups == (0b011, 0b100)


@pytest.mark.parametrize("groups", [
    (0b011, 0b110),   # overlapping
    (0b011,),         # party 2 in no group
    (0b011, 0b100, 0b1000),  # party 3 does not exist
    (0b111, 0),
    (3.0, 4),
    (True, 0b110),
], ids=["overlap", "uncovered", "out-of-range", "empty", "float", "bool"])
def test_malformed_groups_raise(groups):
    psi = random_pure(qubits(3), seed=2)
    with pytest.raises(ValueError):
        PureState(qubits(3), psi.amplitudes, groups=groups)


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


def test_clip_spectrum():
    lam = clip_spectrum(np.array([1.0 + 5e-11, -5e-11]))
    assert lam[0] == pytest.approx(1.0)
    assert lam[1] == 0.0
    with pytest.raises(NumericalContractError, match="below floor"):
        clip_spectrum(np.array([1.0, -1e-9]))
    with pytest.raises(NumericalContractError, match="sums to"):
        clip_spectrum(np.array([0.6, 0.5]))


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


def test_canonical_phase():
    v = np.array([0.0, 1j, 1.0])
    w = canonical_phase(v)
    assert w[1] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="zero vector"):
        canonical_phase(np.zeros(3))


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
