"""The tests' independent oracle: the padded spectrum contract, density
matrices, local unitaries, Haar states and the seeded property sampler.

The engine (kpem.qstate) takes every marginal on the group vectors of a
state, never forms a density matrix and reads no padded spectrum.  The
tests check it against the routes here: the density-matrix route, which
forms the partial trace from the whole amplitude vector and reads its
clipped eigenvalues (spectrum(reduced_density(...))); marginal_spectrum,
which pads and sorts the engine's own piece weights to that same
contract (clip_spectrum); and check_product, which multiplies a state's
group vectors and compares the product with the state's amplitudes.  An
assembled state's amplitudes are that product divided by its norm, so on
such a state check_product tests that the product is a unit vector.
haar_state draws a Haar state from a caller's generator with the bits
kpem.qstate.random_pure draws from its seed's.  No kpem module imports
this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from kpem.partitions import mask_parties
from kpem.qstate import (
    FIDELITY_TOL,
    SPECTRUM_SUM_TOL,
    GroupVector,
    NumericalContractError,
    PureState,
    SystemLayout,
    _check_party_indices,
    _check_unit,
    _product_vector,
    _split,
    haar_vector,
)
from kpem.redfun import PURITY_TOL, ReducedFunctionSpec, evaluate_spectrum

HERM_TOL = 1e-12          # elementwise hermiticity of density matrices
TRACE_TOL = 1e-12         # |tr(rho) - 1|
EIG_FLOOR = -1e-10        # eigenvalues below this are a contract failure


def haar_state(layout: SystemLayout, rng: np.random.Generator) -> PureState:
    """Haar-random pure state of one group: random_pure's draw, from rng."""
    return PureState(layout, haar_vector(layout.total_dim, rng))


def clip_spectrum(raw: np.ndarray) -> np.ndarray:
    """Descending eigenvalues, clipped into [0, 1] and renormalized: the
    spectrum contract of marginal_spectrum and of the density-matrix
    route.  The engine normalizes its weights once, in _svd_weights.

    Raises if a value is NaN or infinite, if one sits below the -1e-10
    floor or if the sum strays from 1 by more than 1e-10 before
    renormalization.
    """
    lam = np.sort(np.real(np.asarray(raw)))[::-1]
    # np.sort puts NaN last, so after the reversal lam[0] is NaN if any entry
    # is, and +inf if the largest is; -inf fails the floor test
    if lam.size and not math.isfinite(lam[0]):
        raise NumericalContractError(f"non-finite eigenvalue {lam[0]}")
    if lam.size and lam[-1] < EIG_FLOOR:
        raise NumericalContractError(f"eigenvalue {lam[-1]} below floor {EIG_FLOOR}")
    lam = np.clip(lam, 0.0, 1.0)
    total = float(lam.sum())
    if not abs(total - 1.0) <= SPECTRUM_SUM_TOL:
        raise NumericalContractError(f"spectrum sums to {total}")
    return lam / total


def marginal_spectrum(state: PureState, keep: Sequence[int]) -> np.ndarray:
    """Spectrum of the reduced state on `keep`, taken on the group vectors.

    Same contract as the density-matrix route (the clipped eigenvalues of
    the partial trace, padded to the subset's dimension and sorted), but
    without forming the density matrix.  It is the product of the cut
    pieces' GroupVector spectra (the weights every engine value is taken
    from), padded with zeros to the subset's dimension, then clip_spectrum;
    on a union of whole groups it is exactly (1, 0, ..., 0).  The engine
    reads the pieces' weights as they are, so its h agrees with h of this
    spectrum within 1e-12, not bit for bit.
    """
    keep = sorted(keep)
    _check_party_indices(keep, state.num_parties)
    weights = np.ones(1)
    for gv, local in state.cuts(sum(1 << p for p in keep)):
        lam = gv.spectrum(local)
        weights = np.multiply.outer(weights, lam[lam > 0.0]).reshape(-1)
    full = np.zeros(math.prod(state.layout.dims[p] for p in keep))
    full[: weights.size] = weights
    return clip_spectrum(full)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian trace-one matrix over a layout; compares by identity."""

    layout: SystemLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        d = self.layout.total_dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} != ({d}, {d})")
        if not np.all(np.isfinite(m)):
            raise NumericalContractError("density matrix has non-finite entries")
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > HERM_TOL:
            raise NumericalContractError(f"hermiticity defect {herm}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise NumericalContractError(f"trace {tr} deviates from 1")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def check_product(state: PureState) -> None:
    """Raise NumericalContractError unless the state's amplitudes are the
    product of its groups' vectors up to a global phase, with fidelity
    within FIDELITY_TOL of 1 (above it only when a vector is not a unit
    vector): the claim a state's groups and vectors make, which the engine,
    reading only the vectors, takes on trust."""
    rec = _product_vector(state.layout.dims, state.groups, [gv.vector for gv in state.vectors])
    fid = float(abs(np.vdot(rec, state.amplitudes)) ** 2)
    if not abs(fid - 1.0) <= FIDELITY_TOL:
        raise NumericalContractError(
            f"amplitudes are not the product of their groups' vectors: fidelity {fid}"
        )


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the usual phase fix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def apply_local_unitary(state: PureState, party: int, u: np.ndarray) -> PureState:
    """u acting on one party; a local unitary keeps every group a product,
    and only the vector of the group holding the party changes.  That new
    vector is checked (_check_unit), so a u that is not unitary raises
    NumericalContractError; the other groups keep their vectors.  Like
    any assembled state's, the amplitudes are the normalized product of
    the group vectors, formed on first read."""
    d = state.layout.dims[party]
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (d, d):
        raise ValueError(f"unitary shape {u.shape} != ({d}, {d})")
    vectors = list(state.vectors)
    i = next(i for i, g in enumerate(state.groups) if g >> party & 1)
    local = mask_parties(state.groups[i]).index(party)
    vec = _act(u, vectors[i].tensor(), local)
    _check_unit(vec)
    vectors[i] = GroupVector(vec, vectors[i].dims)
    return PureState._trusted(state.layout, state.groups, vectors)


def _act(u: np.ndarray, t: np.ndarray, axis: int) -> np.ndarray:
    """u applied to one axis of a tensor, flattened."""
    return np.moveaxis(np.tensordot(u, t, axes=([1], [axis])), 0, axis).reshape(-1)


def reduced_density(state: PureState, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace onto the kept parties (ascending original order)."""
    keep = sorted(keep)
    _check_party_indices(keep, state.num_parties)
    m = _split(state.tensor(), keep)
    rho = m @ m.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(state.layout.sub_layout(keep), rho)


def spectrum(dm: DensityMatrix) -> np.ndarray:
    """Clipped eigenvalue spectrum of a density matrix, descending."""
    return clip_spectrum(np.linalg.eigvalsh(dm.matrix))


def evaluate(h: ReducedFunctionSpec, dm: DensityMatrix) -> float:
    """h of a density matrix, from its clipped spectrum."""
    return evaluate_spectrum(h, spectrum(dm))


def purity(dm: DensityMatrix) -> float:
    """tr(rho^2) = sum |rho_ij|^2 of a Hermitian matrix."""
    return float(np.real(np.vdot(dm.matrix, dm.matrix)))


def is_pure(dm: DensityMatrix) -> bool:
    return purity(dm) >= 1.0 - PURITY_TOL


def overlap_fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2; ignores global phase by construction."""
    if a.layout.dims != b.layout.dims:
        raise ValueError("layout mismatch")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


# --- statistical property checks ---------------------------------------------

SAMPLE_TOL = 1e-9
PROPERTIES = ("concave", "subadditive")


@dataclass(frozen=True)
class SampleCheckReport:
    h: ReducedFunctionSpec
    property: str
    trials: int
    seed: int
    passed: bool
    violations: int
    worst_margin: float
    witness: Optional[dict]


def _random_mixed(rng: np.random.Generator, d: int) -> DensityMatrix:
    # marginal of a Haar state on d x d, generically full rank
    layout = SystemLayout.of(["a", "b"], [d, d])
    return reduced_density(haar_state(layout, rng), [0])


def sample_check(
    h: ReducedFunctionSpec, property: str, trials: int, seed: int
) -> SampleCheckReport:
    """Monte-Carlo check of concavity or subadditivity of h.

    Margins are oriented so that anything above SAMPLE_TOL is a violation;
    the worst trial is always recorded as a witness and can be replayed by
    rerunning with the same seed.  No pass/fail is asserted beyond the
    observed margins.
    """
    if property not in PROPERTIES:
        raise ValueError(f"unknown property {property!r}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    worst = -math.inf
    worst_witness: Optional[dict] = None
    violations = 0
    for t in range(trials):
        if property == "concave":
            d = int(rng.integers(2, 5))
            m = int(rng.integers(2, 4))
            states = [_random_mixed(rng, d) for _ in range(m)]
            w = rng.random(m) + 1e-3
            w /= w.sum()
            mix = DensityMatrix(
                states[0].layout,
                sum(p * s.matrix for p, s in zip(w, states)),
            )
            margin = float(
                sum(p * evaluate(h, s) for p, s in zip(w, states)) - evaluate(h, mix)
            )
            desc = {"trial": t, "d": d, "weights": w.tolist()}
        else:
            da, db, dc = (int(rng.integers(2, 4)) for _ in range(3))
            psi = haar_state(SystemLayout.of(["a", "b", "c"], [da, db, dc]), rng)
            margin = float(
                evaluate(h, reduced_density(psi, [0, 1]))
                - evaluate(h, reduced_density(psi, [0]))
                - evaluate(h, reduced_density(psi, [1]))
            )
            desc = {"trial": t, "dims": [da, db, dc]}
        if margin > SAMPLE_TOL:
            violations += 1
        if margin > worst:
            worst = margin
            worst_witness = desc
    return SampleCheckReport(
        h=h,
        property=property,
        trials=trials,
        seed=seed,
        passed=violations == 0,
        violations=violations,
        worst_margin=worst,
        witness=worst_witness,
    )
