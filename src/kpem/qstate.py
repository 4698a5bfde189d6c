"""Labeled qudit systems, pure state vectors, reduced density matrices.

Index convention (bit-exact contract): party 0 is the most significant
digit of the row-major mixed-radix index into the amplitude vector, so for
qubits ABC the basis state |100> sits at index 4.

A PureState carries `groups`: disjoint party bitmasks (bit i is party i)
covering every party, across which its amplitudes are a tensor product.
The default is one group, which claims nothing.  build_state records one
group per declared factor and the party-wise operations carry the groups
along (see each of them), so the marginal engine and the factorization
can work inside one group at a time.

All tolerance constants live here.  The purity threshold is shared with
the factorization search so that "this marginal is pure" means the same
thing everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .partitions import Partition, mask_parties

NORM_TOL = 1e-12          # state vector norm
HERM_TOL = 1e-12          # elementwise hermiticity of density matrices
TRACE_TOL = 1e-12         # |tr(rho) - 1|
EIG_FLOOR = -1e-10        # eigenvalues below this are a contract failure
SPECTRUM_SUM_TOL = 1e-10  # clipped spectrum must sum to 1 within this
PURITY_TOL = 1e-9         # tr(rho^2) >= 1 - PURITY_TOL counts as pure
# a pair with ||rho_ij - rho_i (x) rho_j||_2 above this lies inside one
# factor: 10x the 6 sqrt(PURITY_TOL) that any pure cut between them allows
LINK_TOL = 10 * 6 * math.sqrt(PURITY_TOL)
FIDELITY_TOL = 1e-8       # product reconstruction in factorize
DIM_CAP = 2 ** 14         # total Hilbert dimension guard
PARTY_CAP = 12            # party count guard


class NumericalContractError(Exception):
    """A numerical invariant (norm, hermiticity, positivity, fidelity) failed."""


@dataclass(frozen=True)
class SystemLayout:
    """Ordered parties, each a (label, local dimension) pair."""

    parties: tuple[tuple[str, int], ...]
    labels: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dims: tuple[int, ...] = field(init=False, repr=False, compare=False)
    total_dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        labels = tuple(lab for lab, _ in self.parties)
        if not labels:
            raise ValueError("layout needs at least one party")
        _check_labels(labels)
        for lab, d in self.parties:
            if not isinstance(d, int) or d < 2:
                raise ValueError(f"party {lab!r} has invalid dimension {d!r}")
        dims = tuple(d for _, d in self.parties)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "total_dim", math.prod(dims))

    @classmethod
    def of(cls, labels: Sequence[str], dims: Sequence[int]) -> "SystemLayout":
        if len(labels) != len(dims):
            raise ValueError("labels and dims differ in length")
        return cls(tuple(zip(labels, (int(d) for d in dims))))

    @classmethod
    def qubits(cls, labels: Sequence[str]) -> "SystemLayout":
        return cls.of(labels, [2] * len(labels))

    @property
    def num_parties(self) -> int:
        return len(self.parties)

    def index_of(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.parties):
            if lab == label:
                return i
        raise KeyError(label)

    def sub_layout(self, indices: Sequence[int]) -> "SystemLayout":
        """Layout of a party subset, original order kept."""
        idx = sorted(indices)
        _check_party_indices(idx, self.num_parties)
        return SystemLayout(tuple(self.parties[i] for i in idx))


def _check_labels(labels: Sequence[str]) -> None:
    """Party labels must be non-empty, unique and prefix-free.

    The text forms join labels without a separator, so they only parse
    back when no label is a prefix of another; in sorted order such a
    label is directly followed by one that extends it.
    """
    if "" in labels:
        raise ValueError("party labels must be non-empty")
    if len(set(labels)) != len(labels):
        raise ValueError(f"duplicate party labels: {list(labels)}")
    ordered = sorted(labels)
    for a, b in zip(ordered, ordered[1:]):
        if b.startswith(a):
            raise ValueError(f"label {a!r} is a prefix of label {b!r}")


def _check_party_indices(indices: Sequence[int], n: int) -> None:
    if len(indices) == 0:
        raise ValueError("empty party subset")
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate party indices: {indices}")
    if not all(0 <= i < n for i in indices):
        raise ValueError(f"party index out of range for n={n}: {indices}")


def check_size_caps(layout: SystemLayout, unsafe_large: bool = False) -> None:
    """Guard against accidental exponential blowup; lift with unsafe_large."""
    if unsafe_large:
        return
    if layout.total_dim > DIM_CAP:
        raise ValueError(
            f"total dimension {layout.total_dim} exceeds cap {DIM_CAP}; "
            "pass unsafe_large=True to override"
        )
    if layout.num_parties > PARTY_CAP:
        raise ValueError(
            f"{layout.num_parties} parties exceeds cap {PARTY_CAP}; "
            "pass unsafe_large=True to override"
        )


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over a layout.

    `groups` are disjoint party bitmasks covering every party, ordered by
    lowest party; the amplitudes are claimed to be a tensor product across
    them.  The default (None) is the one group of all parties.
    """

    layout: SystemLayout
    amplitudes: np.ndarray
    groups: Optional[tuple[int, ...]] = field(default=None, kw_only=True, compare=False)

    def __post_init__(self) -> None:
        amp = np.asarray(self.amplitudes, dtype=np.complex128).reshape(-1)
        if amp.shape != (self.layout.total_dim,):
            raise ValueError(
                f"amplitude length {amp.size} != total dimension {self.layout.total_dim}"
            )
        full = (1 << self.layout.num_parties) - 1
        groups = (full,) if self.groups is None else tuple(self.groups)
        union = 0
        for g in groups:
            if isinstance(g, bool) or not isinstance(g, int) or g <= 0 or g & ~full:
                raise ValueError(f"group {g!r} is not a nonempty party bitmask")
            if g & union:
                raise ValueError(f"groups overlap: {groups}")
            union |= g
        if union != full:
            raise ValueError(f"groups {groups} do not cover all {self.layout.num_parties} parties")
        object.__setattr__(self, "groups", tuple(sorted(groups, key=lambda g: g & -g)))
        if not np.all(np.isfinite(amp)):
            raise NumericalContractError("state has non-finite amplitudes")
        norm = float(np.linalg.norm(amp))
        if abs(norm - 1.0) > NORM_TOL:
            raise NumericalContractError(f"state norm {norm} deviates from 1")
        amp = amp.copy()
        amp.flags.writeable = False
        object.__setattr__(self, "amplitudes", amp)

    @property
    def num_parties(self) -> int:
        return self.layout.num_parties

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per party (read-only view)."""
        return self.amplitudes.reshape(self.layout.dims)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian trace-one matrix over a layout."""

    layout: SystemLayout
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.complex128)
        d = self.layout.total_dim
        if m.shape != (d, d):
            raise ValueError(f"matrix shape {m.shape} != ({d}, {d})")
        herm = float(np.max(np.abs(m - m.conj().T)))
        if herm > HERM_TOL:
            raise NumericalContractError(f"hermiticity defect {herm}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > TRACE_TOL:
            raise NumericalContractError(f"trace {tr} deviates from 1")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


# --- state specifications ----------------------------------------------------


@dataclass(frozen=True)
class GhzFactor:
    """(1/sqrt d) sum_j |j...j> on len(labels) parties of dimension dim."""

    labels: tuple[str, ...]
    dim: int = 2


@dataclass(frozen=True)
class WFactor:
    """(1/sqrt n) sum_i |0..1_i..0> on qubits."""

    labels: tuple[str, ...]


@dataclass(frozen=True)
class MaxEntFactor:
    """(1/sqrt d) sum_j |jj> on exactly two parties of dimension dim."""

    labels: tuple[str, ...]
    dim: int = 2


@dataclass(frozen=True)
class AmplitudesFactor:
    """Explicit amplitude vector over the listed parties."""

    labels: tuple[str, ...]
    dims: tuple[int, ...]
    amplitudes: tuple[complex, ...]


StateFactor = Union[GhzFactor, WFactor, MaxEntFactor, AmplitudesFactor]


@dataclass(frozen=True)
class StateSpec:
    """A tensor product of named factors; the build ground truth."""

    factors: tuple[StateFactor, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "factors", tuple(self.factors))
        if not self.factors:
            raise ValueError("spec needs at least one factor")
        seen: set[str] = set()
        for f in self.factors:
            if not f.labels:
                raise ValueError(f"factor without labels: {f!r}")
            for lab in f.labels:
                if lab in seen:
                    raise ValueError(f"label {lab!r} used by more than one factor")
                seen.add(lab)
            _validate_factor(f)
        _check_labels(self.labels)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for f in self.factors for lab in f.labels)


def _validate_factor(f: StateFactor) -> None:
    if isinstance(f, (GhzFactor, MaxEntFactor)) and f.dim < 2:
        raise ValueError(f"local dimension must be >= 2, got {f.dim}")
    if isinstance(f, MaxEntFactor) and len(f.labels) != 2:
        raise ValueError("maxent factor takes exactly two parties")
    if isinstance(f, AmplitudesFactor):
        if len(f.dims) != len(f.labels):
            raise ValueError("dims and labels differ in length")
        if any(d < 2 for d in f.dims):
            raise ValueError(f"local dimension must be >= 2, got {f.dims}")
        if len(f.amplitudes) != math.prod(f.dims):
            raise ValueError("amplitude length does not match dims")
        if not np.any(np.asarray(f.amplitudes)):
            raise ValueError("zero amplitude vector")


def _factor_dims(f: StateFactor) -> tuple[int, ...]:
    if isinstance(f, AmplitudesFactor):
        return f.dims
    return (getattr(f, "dim", 2),) * len(f.labels)  # W factors are qubits


def _factor_vector(f: StateFactor) -> np.ndarray:
    if isinstance(f, GhzFactor):
        n, d = len(f.labels), f.dim
        v = np.zeros(d ** n, dtype=np.complex128)
        step = (d ** n - 1) // (d - 1)  # index of |j...j> is j * (1 + d + ... )
        v[np.arange(d) * step] = 1.0 / math.sqrt(d)
        return v
    if isinstance(f, WFactor):
        n = len(f.labels)
        v = np.zeros(2 ** n, dtype=np.complex128)
        v[[2 ** (n - 1 - i) for i in range(n)]] = 1.0 / math.sqrt(n)
        return v
    if isinstance(f, MaxEntFactor):
        d = f.dim
        v = np.zeros(d * d, dtype=np.complex128)
        v[np.arange(d) * (d + 1)] = 1.0 / math.sqrt(d)
        return v
    if isinstance(f, AmplitudesFactor):
        return _normalized(np.asarray(f.amplitudes, dtype=np.complex128))
    raise TypeError(f"unknown factor: {f!r}")


def build_state(spec: StateSpec, unsafe_large: bool = False) -> PureState:
    """Materialize a StateSpec as a PureState in the listed party order,
    with one group per factor.

    The size caps are checked on the layout before any vector is built.
    """
    dims = [d for f in spec.factors for d in _factor_dims(f)]
    layout = SystemLayout.of(spec.labels, dims)
    check_size_caps(layout, unsafe_large)
    vec = np.ones(1, dtype=np.complex128)
    groups, at = [], 0
    for f in spec.factors:
        vec = np.kron(vec, _factor_vector(f))
        groups.append(((1 << len(f.labels)) - 1) << at)
        at += len(f.labels)
    # a product of unit vectors: its norm is near 1, so no scaling is needed
    vec /= np.linalg.norm(vec)
    return PureState(layout, vec, groups=tuple(groups))


def _normalized(vec: np.ndarray) -> np.ndarray:
    """vec / ||vec|| for a nonzero finite complex vector.

    The vector is first divided by the power of two just above its largest
    real or imaginary part, so the norm neither overflows nor underflows.
    Scaling by a power of two is exact, so a vector whose norm was already
    representable normalizes to the same bits as without the scaling.
    """
    parts = np.ascontiguousarray(vec, dtype=np.complex128).view(np.float64)
    _, exp = math.frexp(float(np.abs(parts).max()))
    scaled = np.ldexp(parts, -exp).view(np.complex128)
    return scaled / np.linalg.norm(scaled)


# --- dictionary form of a StateSpec (used by the CLI state files and by
# --- audit witness records; keys: kind, labels, dim, dims, re, im) -----------


_FACTOR_KEYS = {
    "ghz": {"kind", "labels", "dim"},
    "w": {"kind", "labels"},
    "maxent": {"kind", "labels", "dim"},
    "amplitudes": {"kind", "labels", "dims", "re", "im"},
}


def factor_to_dict(f: StateFactor) -> dict:
    if isinstance(f, GhzFactor):
        return {"kind": "ghz", "labels": list(f.labels), "dim": f.dim}
    if isinstance(f, WFactor):
        return {"kind": "w", "labels": list(f.labels)}
    if isinstance(f, MaxEntFactor):
        return {"kind": "maxent", "labels": list(f.labels), "dim": f.dim}
    if isinstance(f, AmplitudesFactor):
        return {
            "kind": "amplitudes",
            "labels": list(f.labels),
            "dims": list(f.dims),
            "re": [float(a.real) for a in f.amplitudes],
            "im": [float(a.imag) for a in f.amplitudes],
        }
    raise TypeError(f"unknown factor: {f!r}")


def factor_from_dict(obj: dict, where: str = "factor") -> StateFactor:
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object, got {type(obj).__name__}")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _FACTOR_KEYS:
        raise ValueError(f"{where}: unknown kind {kind!r}")
    unknown = set(obj) - _FACTOR_KEYS[kind]
    if unknown:
        raise ValueError(f"{where}: unknown field(s) {sorted(unknown)} for kind {kind!r}")
    labels = obj.get("labels")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ValueError(f"{where}: 'labels' must be a list of strings")
    labels = tuple(labels)
    if kind == "ghz":
        return GhzFactor(labels, _json_int(obj.get("dim", 2), "dim", where))
    if kind == "w":
        return WFactor(labels)
    if kind == "maxent":
        return MaxEntFactor(labels, _json_int(obj.get("dim", 2), "dim", where))
    for key in ("dims", "re", "im"):
        if key not in obj or not isinstance(obj[key], list):
            raise ValueError(f"{where}: amplitudes factor needs list field {key!r}")
    if len(obj["re"]) != len(obj["im"]):
        raise ValueError(f"{where}: 're' and 'im' differ in length")
    for key in ("re", "im"):
        for x in obj[key]:
            try:
                bad = isinstance(x, bool) or not isinstance(x, (int, float)) or not math.isfinite(x)
            except OverflowError:  # an integer beyond the float range
                bad = True
            if bad:
                raise ValueError(f"{where}: {key!r} entries must be finite numbers, got {x!r}")
    amps = tuple(complex(r, i) for r, i in zip(obj["re"], obj["im"]))
    dims = tuple(_json_int(d, "dims", where) for d in obj["dims"])
    return AmplitudesFactor(labels, dims, amps)


def _json_int(value, key: str, where: str) -> int:
    """A JSON integer; floats and booleans are rejected, never truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: {key!r} takes JSON integers, got {value!r}")
    return value


def spec_to_dict(spec: StateSpec) -> dict:
    return {"factors": [factor_to_dict(f) for f in spec.factors]}


def spec_from_dict(obj: dict) -> StateSpec:
    if not isinstance(obj, dict):
        raise ValueError(f"state document: expected an object, got {type(obj).__name__}")
    unknown = set(obj) - {"factors"}
    if unknown:
        raise ValueError(f"state document: unknown field(s) {sorted(unknown)}")
    factors = obj.get("factors")
    if not isinstance(factors, list) or not factors:
        raise ValueError("state document: 'factors' must be a nonempty array")
    return StateSpec(tuple(
        factor_from_dict(f, where=f"factors[{i}]") for i, f in enumerate(factors)
    ))


# --- random states -----------------------------------------------------------


def haar_state(layout: SystemLayout, rng: np.random.Generator) -> PureState:
    """Haar-random pure state; one group, since it is generically entangled."""
    z = rng.standard_normal(layout.total_dim) + 1j * rng.standard_normal(layout.total_dim)
    return PureState(layout, z / np.linalg.norm(z))


def random_pure(layout: SystemLayout, seed: int, unsafe_large: bool = False) -> PureState:
    """Haar-distributed pure state, deterministic for a given seed."""
    check_size_caps(layout, unsafe_large)
    return haar_state(layout, np.random.default_rng(seed))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with the usual phase fix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


# --- party-wise operations ---------------------------------------------------


def _carry_groups(groups: tuple[int, ...], target: dict[int, int]) -> tuple[int, ...]:
    """The groups after input party p becomes output party target[p].

    Parties missing from `target` are dropped, as are groups left empty;
    groups that land on a shared output party merge into one.
    """
    carried: list[int] = []
    for g in groups:
        out = 0
        for p in mask_parties(g):
            if p in target:
                out |= 1 << target[p]
        if not out:
            continue
        # the carried groups are disjoint, so one pass finds every overlap
        for other in [c for c in carried if c & out]:
            carried.remove(other)
            out |= other
        carried.append(out)
    return tuple(carried)


def permute_parties(state: PureState, perm: Sequence[int]) -> PureState:
    """Party i of the output is party perm[i] of the input; the groups are
    relabeled with the parties."""
    n = state.num_parties
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of range({n}): {perm}")
    parties = tuple(state.layout.parties[p] for p in perm)
    amp = state.tensor().transpose(perm).reshape(-1)
    groups = _carry_groups(state.groups, {p: i for i, p in enumerate(perm)})
    return PureState(SystemLayout(parties), amp, groups=groups)


def regroup(state: PureState, partition: Partition) -> PureState:
    """Merge each partition block into a single composite party.

    Blocks keep canonical order (by smallest member); within a block the
    original party order is kept, so amplitudes are a pure re-indexing.
    The groups a block touches merge into one group of the output.
    """
    n = state.num_parties
    if partition.parties != tuple(range(n)):
        raise ValueError("partition must cover all parties of the state")
    labels = state.layout.labels
    dims = state.layout.dims
    parties = tuple(
        ("".join(labels[i] for i in block), math.prod(dims[i] for i in block))
        for block in partition.blocks
    )
    axes = [i for block in partition.blocks for i in block]
    amp = state.tensor().transpose(axes).reshape(-1)
    groups = _carry_groups(
        state.groups, {p: j for j, block in enumerate(partition.blocks) for p in block}
    )
    return PureState(SystemLayout(parties), amp, groups=groups)


def apply_local_unitary(state: PureState, party: int, u: np.ndarray) -> PureState:
    """u acting on one party; a local unitary keeps every group a product."""
    d = state.layout.dims[party]
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (d, d):
        raise ValueError(f"unitary shape {u.shape} != ({d}, {d})")
    t = np.tensordot(u, state.tensor(), axes=([1], [party]))
    t = np.moveaxis(t, 0, party)
    return PureState(state.layout, t.reshape(-1), groups=state.groups)


def _split_matrix(state: PureState, keep: Sequence[int]) -> np.ndarray:
    """Reshape amplitudes to (dim of kept parties, dim of the rest)."""
    n = state.num_parties
    keep = sorted(keep)
    _check_party_indices(keep, n)
    kept = set(keep)
    rest = [i for i in range(n) if i not in kept]
    dims = state.layout.dims
    dk = math.prod(dims[i] for i in keep)
    return state.tensor().transpose(keep + rest).reshape(dk, -1)


def pure_restriction(state: PureState, keep: Sequence[int]) -> Optional[PureState]:
    """The kept parties' own pure state, or None when their marginal is mixed.

    The factor vector is the leading left singular vector of the split
    matrix, phase-fixed by canonical_phase.  Its groups are the nonempty
    `g & keep`: the marginal of a product is the product of the pieces'
    marginals, so when it is pure every piece is pure and the kept state is
    the product of the pieces' own states.
    """
    keep = sorted(keep)
    u, s, _ = np.linalg.svd(_split_matrix(state, keep), full_matrices=False)
    if 1.0 - float(s[0]) ** 2 > PURITY_TOL:
        return None
    groups = _carry_groups(state.groups, {p: i for i, p in enumerate(keep)})
    return PureState(state.layout.sub_layout(keep), canonical_phase(u[:, 0]), groups=groups)


def reduced_density(state: PureState, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace onto the kept parties (ascending original order)."""
    m = _split_matrix(state, keep)
    rho = m @ m.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(state.layout.sub_layout(sorted(keep)), rho)


def clip_spectrum(raw: np.ndarray) -> np.ndarray:
    """Descending eigenvalues, clipped into [0, 1] and renormalized.

    Raises if a value sits below the -1e-10 floor or if the sum strays
    from 1 by more than 1e-10 before renormalization.
    """
    lam = np.sort(np.real(np.asarray(raw)))[::-1]
    if lam.size and lam[-1] < EIG_FLOOR:
        raise NumericalContractError(f"eigenvalue {lam[-1]} below floor {EIG_FLOOR}")
    lam = np.clip(lam, 0.0, 1.0)
    total = float(lam.sum())
    if abs(total - 1.0) > SPECTRUM_SUM_TOL:
        raise NumericalContractError(f"spectrum sums to {total}")
    return lam / total


def spectrum(dm: DensityMatrix) -> np.ndarray:
    """Clipped eigenvalue spectrum of a density matrix, descending."""
    return clip_spectrum(np.linalg.eigvalsh(dm.matrix))


def marginal_spectrum(state: PureState, keep: Sequence[int], *, raw: bool = False) -> np.ndarray:
    """Spectrum of the reduced state on `keep`, via SVD of the split vector.

    Same contract as spectrum(reduced_density(...)) but without forming
    the density matrix; the two routes agree within tolerance and are
    cross-checked in the tests.

    With raw=True the squared singular values are returned as the SVD
    gives them, min(d_keep, d_rest) of them, before padding and clipping.
    The SVD runs on the smaller side's split matrix (on `keep`'s when the
    two dimensions are equal), so when `keep` is the larger side these are
    bit for bit the squared singular values of its complement's split, and
    pad_spectrum of them to each side's dimension gives that side's
    spectrum.
    """
    m = _split_matrix(state, keep)
    if m.shape[0] > m.shape[1]:
        m = m.T  # singular values are side-independent; keep SVD small
    lam = np.linalg.svd(m, compute_uv=False) ** 2
    if raw:
        return lam
    return pad_spectrum(lam, math.prod(state.layout.dims[i] for i in keep))


def pad_spectrum(weights: np.ndarray, dim: int) -> np.ndarray:
    """Spectrum of dimension `dim` whose nonzero part is `weights`: padded
    with zeros, then clip_spectrum."""
    full = np.zeros(dim)
    full[: weights.size] = weights
    return clip_spectrum(full)


def purity(dm: DensityMatrix) -> float:
    return float(np.real(np.sum(dm.matrix * dm.matrix.conj().T)))


def marginal_purity(state: PureState, keep: Sequence[int]) -> float:
    """tr(rho_keep^2) straight from the split vector."""
    m = _split_matrix(state, keep)
    if m.shape[0] > m.shape[1]:
        m = m.T
    g = m @ m.conj().T
    return float(np.real(np.sum(g * g.conj())))


def is_pure(dm: DensityMatrix) -> bool:
    return purity(dm) >= 1.0 - PURITY_TOL


def overlap_fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2; ignores global phase by construction."""
    if a.layout.dims != b.layout.dims:
        raise ValueError("layout mismatch")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def canonical_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its first nonzero entry is real > 0."""
    idx = np.flatnonzero(np.abs(vec) > 1e-12)
    if idx.size == 0:
        raise ValueError("zero vector")
    z = vec[idx[0]]
    return vec * (abs(z) / z)
