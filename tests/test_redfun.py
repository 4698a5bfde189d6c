"""Reduced functions: closed-form values, zero snapping, sampling checks."""

import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpem import redfun
from kpem.measures import MeasureSpec
from kpem.qstate import MaxEntFactor, StateSpec, build_state, evaluate, reduced_density, sample_check
from kpem.redfun import (
    CONCURRENCE,
    ENTROPY,
    ReducedFunctionSpec,
    evaluate_spectrum,
    finish,
    format_redfun,
    parse_redfun,
    product_sums,
    spectral_sums,
)

HALF = np.array([0.5, 0.5])
W_SINGLE = np.array([2 / 3, 1 / 3])


def test_entropy_values():
    assert evaluate_spectrum(ENTROPY, HALF) == pytest.approx(1.0)
    assert evaluate_spectrum(ENTROPY, W_SINGLE) == pytest.approx(
        math.log2(3) - 2 / 3
    )


def test_concurrence_values():
    assert evaluate_spectrum(CONCURRENCE, HALF) == pytest.approx(1.0)
    # sqrt(2 * (1 - 5/9))
    assert evaluate_spectrum(CONCURRENCE, W_SINGLE) == pytest.approx(
        2 * math.sqrt(2) / 3
    )


def test_q_and_alpha_values():
    q2 = ReducedFunctionSpec("q_family", 2.0)
    a5 = ReducedFunctionSpec("alpha_family", 0.5)
    assert evaluate_spectrum(q2, HALF) == pytest.approx(0.5)
    assert evaluate_spectrum(a5, HALF) == pytest.approx(math.sqrt(2) - 1)


def test_pure_spectrum_gives_exact_zero():
    for h in (CONCURRENCE, ENTROPY,
              ReducedFunctionSpec("q_family", 3.0),
              ReducedFunctionSpec("alpha_family", 0.25)):
        assert evaluate_spectrum(h, np.array([1.0, 0.0])) == 0.0
        # near-pure within the shared purity threshold snaps to exactly 0
        assert evaluate_spectrum(h, np.array([1.0 - 1e-10, 1e-10])) == 0.0


def test_product_sums_are_the_sums_of_the_kron_spectrum():
    pieces = (W_SINGLE, np.array([0.7, 0.2, 0.1]), np.array([0.6, 0.4]))
    kron = np.sort(np.kron(np.kron(pieces[0], pieces[1]), pieces[2]))[::-1]
    for h in (CONCURRENCE, ENTROPY,
              ReducedFunctionSpec("q_family", 3.0),
              ReducedFunctionSpec("alpha_family", 0.25)):
        got = product_sums(h, [spectral_sums(h, lam) for lam in pieces])
        np.testing.assert_allclose(got, spectral_sums(h, kron), rtol=1e-14, err_msg=str(h))
        assert finish(h, product_sums(h, [])) == 0.0


def np_sum_sums(h, lam):
    """spectral_sums in its np.sum form, the reference for its bits."""
    pur = float(np.sum(lam * lam))
    if h.kind == "concurrence":
        return pur, pur
    if h.kind == "entropy":
        pos = lam[lam > 0.0]
        return pur, float(-np.sum(pos * np.log2(pos)))
    if h.kind == "q_family":
        return pur, float(np.sum(lam ** h.parameter))
    return pur, float(np.sum(lam[lam > 0.0] ** h.parameter))


@settings(max_examples=200, deadline=None)
@given(lam=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=1, max_size=40))
def test_spectral_sums_are_the_np_sum_sums_bit_for_bit(lam):
    """On unsorted clipped spectra with zeros anywhere, every kind's sums
    are those of the np.sum form, bit for bit, and no zero raises a
    RuntimeWarning (0 log 0 and 0 ** alpha are never formed)."""
    lam = np.array(lam)
    for h in (CONCURRENCE, ENTROPY, ReducedFunctionSpec("q_family", 2.0),
              ReducedFunctionSpec("q_family", 3.5), ReducedFunctionSpec("alpha_family", 0.25),
              ReducedFunctionSpec("alpha_family", 0.5)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectral_sums(h, lam)
        assert [repr(x) for x in got] == [repr(x) for x in np_sum_sums(h, lam)], h
        assert all(type(x) is float for x in got)


def test_evaluate_on_density_matrix():
    bell = build_state(StateSpec((MaxEntFactor(("A", "B")),)))
    rho = reduced_density(bell, (0,))
    assert evaluate(ENTROPY, rho) == pytest.approx(1.0)
    assert evaluate(CONCURRENCE, rho) == pytest.approx(1.0)


def test_parameter_ranges():
    with pytest.raises(ValueError, match="q > 1"):
        ReducedFunctionSpec("q_family", 1.0)
    with pytest.raises(ValueError, match="0 < alpha < 1"):
        ReducedFunctionSpec("alpha_family", 1.0)
    with pytest.raises(ValueError, match="no parameter"):
        ReducedFunctionSpec("entropy", 2.0)
    with pytest.raises(ValueError, match="unknown reduced function"):
        ReducedFunctionSpec("renyi")


@pytest.mark.parametrize("kind,bad", [
    ("q_family", math.inf),
    ("q_family", math.nan),
    ("alpha_family", math.inf),
    ("alpha_family", math.nan),
])
def test_parameters_must_be_finite(kind, bad):
    with pytest.raises(ValueError, match="needs"):
        ReducedFunctionSpec(kind, bad)
    with pytest.raises(ValueError, match="needs"):
        parse_redfun(f"{'q' if kind == 'q_family' else 'alpha'}:{bad}")


@pytest.mark.parametrize("kind,name,bad", [
    ("q_family", "q", "2"),
    ("q_family", "q", b"2"),
    ("q_family", "q", 2 + 0j),
    ("alpha_family", "alpha", "0.5"),
    ("alpha_family", "alpha", [0.5]),
])
def test_parameters_must_be_real(kind, name, bad):
    with pytest.raises(ValueError, match=f"{kind} needs a real {name}, got "):
        ReducedFunctionSpec(kind, bad)
    measure = "Cq_k" if kind == "q_family" else "Calpha_k"
    with pytest.raises(ValueError, match=f"needs a real {name}"):
        MeasureSpec(measure, 2, parameter=bad)


def test_real_parameters_of_any_real_type():
    assert ReducedFunctionSpec("q_family", 2).parameter == 2
    assert ReducedFunctionSpec("q_family", np.float32(2.5)).parameter == 2.5
    assert ReducedFunctionSpec("alpha_family", np.float64(0.5)).parameter == 0.5
    # a bool is a real number whose value misses the range, as before
    with pytest.raises(ValueError, match="q > 1"):
        ReducedFunctionSpec("q_family", True)


def test_parse_and_format():
    assert parse_redfun("entropy") is ENTROPY
    assert parse_redfun("concurrence") is CONCURRENCE
    assert parse_redfun("q:2").parameter == 2.0
    assert parse_redfun("alpha:0.5") == ReducedFunctionSpec("alpha_family", 0.5)
    with pytest.raises(ValueError, match="cannot parse"):
        parse_redfun("purity")
    for text in ("entropy", "concurrence", "q:2", "alpha:0.5", "q:1.7"):
        h = parse_redfun(text)
        assert parse_redfun(format_redfun(h)) == h


@pytest.mark.parametrize("h", [
    ENTROPY,
    CONCURRENCE,
    ReducedFunctionSpec("q_family", 2.0),
    ReducedFunctionSpec("alpha_family", 0.5),
])
def test_concavity_sampling(h):
    report = sample_check(h, "concave", trials=150, seed=9)
    assert report.passed
    assert report.violations == 0
    assert report.witness is not None


@pytest.mark.parametrize("h", [ENTROPY, CONCURRENCE])
def test_subadditivity_sampling(h):
    report = sample_check(h, "subadditive", trials=150, seed=10)
    assert report.passed
    assert report.violations == 0


def test_sample_check_deterministic():
    a = sample_check(ENTROPY, "concave", trials=40, seed=5)
    b = sample_check(ENTROPY, "concave", trials=40, seed=5)
    assert a == b
    with pytest.raises(ValueError, match="unknown property"):
        sample_check(ENTROPY, "monogamy", trials=1, seed=0)


def test_redfun_imports_no_kpem_module():
    """The reduced functions are spectral math: redfun has no relative
    import, so every kpem module may import it without a cycle."""
    tree = ast.parse(Path(redfun.__file__).read_text())
    relative = [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level]
    assert relative == []
