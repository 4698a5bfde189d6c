"""Labeled qudit systems, pure state vectors, reduced density matrices.

Index convention (bit-exact contract): party 0 is the most significant
digit of the row-major mixed-radix index into the amplitude vector, so for
qubits ABC the basis state |100> sits at index 4.

A PureState carries `groups`: disjoint party bitmasks (bit i is party i)
covering every party, across which its amplitudes are a tensor product,
and one GroupVector per group: the group's own unit vector, over its
parties in ascending order.  The default is one group, whose vector is the
amplitudes themselves, which claims nothing.  build_state records one
group per declared factor and keeps each factor's vector; the named
factors (GHZ, W, maxent) take one shared GroupVector per (kind, size,
dimension).  The party-wise operations carry the groups and their vectors
along (see _carry), so a permuted, regrouped or restricted copy of a state
holds the same GroupVector objects for the groups it leaves alone.  A
state built without vectors reads each group's vector once, on first use.
Each state also holds the memo of its marginal engine (PureState._memo,
see kpem.factorize.MarginalCache).

Every marginal of a party subset X is taken on the group vectors: X cuts a
piece out of each group it meets, and its marginal is the product of the
pieces' marginals.  A piece's spectrum is the SVD of its own group
vector's split (GroupVector.spectrum), memoized on the GroupVector, so
every state holding the same object shares it; a union of whole groups is
exactly pure.  A pure marginal's own state is the product of the pieces'
own vectors (_own_vectors): a group kept whole is its GroupVector, with
no SVD, and a cut piece is its group vector's leading singular vector.
pure_restriction wraps them in a state, and the factorization's
reconstruction check multiplies them.

All tolerance constants live here.  "This marginal is pure" is decided
by one number, marginal_purity: the product of the cut pieces' purities,
each the sum of the squares of the piece's spectrum, memoized on its
GroupVector (GroupVector.purity), against PURITY_TOL.
pure_restriction, the factorization search and h's zero rule all take it
off the same group SVDs.
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
    """Party labels must be non-empty, unique, prefix-free and free of '|'.

    The text forms join labels without a separator and blocks with '|',
    so they only parse back when no label holds '|' and no label is a
    prefix of another; in sorted order such a label is directly followed
    by one that extends it.
    """
    if "" in labels:
        raise ValueError("party labels must be non-empty")
    for label in labels:
        if "|" in label:
            raise ValueError(f"party label {label!r} contains the block separator '|'")
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


class GroupVector:
    """One group's own state and the memo of its marginals.

    `vector` is a unit vector over the group's parties in ascending order,
    with local dimensions `dims`; local party i is the group's i-th lowest
    party, and a local mask has bit i for it.  `symmetric` marks a vector
    that no reordering of its parties changes (the named GHZ, W and maxent
    factors): a local subset's spectrum then depends on its size alone, so
    the memo keys it by the lowest parties of that size (`key`), and the
    party-wise operations keep the object under any reordering.

    The memo lives on the object and serves every state holding it:
    `weights` maps an SVD'd side (a local mask) to its squared singular
    values, `purities` maps the key of a local piece to its purity, and
    `sums` maps (h kind, parameter, key of the local piece) to the piece's
    redfun.spectral_sums, filled by the marginal engine
    (kpem.factorize.MarginalCache).  The per-state memo of the h values
    these combine into lives on each PureState.
    """

    __slots__ = ("vector", "dims", "symmetric", "weights", "purities", "sums")

    def __init__(self, vector: np.ndarray, dims: Sequence[int], symmetric: bool = False):
        vec = np.asarray(vector, dtype=np.complex128).reshape(-1)
        self.dims = tuple(dims)
        if vec.size != math.prod(self.dims):
            raise ValueError(f"group vector length {vec.size} != dimension {math.prod(self.dims)}")
        if vec.flags.writeable:
            vec = vec.copy()
            vec.flags.writeable = False
        self.vector = vec
        self.symmetric = symmetric
        self.weights: dict[int, np.ndarray] = {}
        self.purities: dict[int, float] = {}
        self.sums: dict[tuple, tuple[float, float]] = {}

    def tensor(self) -> np.ndarray:
        return self.vector.reshape(self.dims)

    def key(self, local: int) -> int:
        """The local mask the memo files `local` under."""
        return (1 << local.bit_count()) - 1 if self.symmetric else local

    def spectrum(self, local: int) -> np.ndarray:
        """Clipped spectrum of the marginal on a local subset, padded to its
        dimension.  The SVD runs on the smaller side of the group's split
        (on `local` at equal dimensions or when it is the whole group), as
        in _svd_weights, and its weights serve the complement too."""
        local = self.key(local)
        dim = math.prod(self.dims[i] for i in mask_parties(local))
        rest = local ^ ((1 << len(self.dims)) - 1)
        side = local if dim * dim <= self.vector.size or not rest else self.key(rest)
        weights = self.weights.get(side)
        if weights is None:
            weights = self.weights[side] = _svd_weights(self.tensor(), mask_parties(side))
        return pad_spectrum(weights, dim)

    def purity(self, local: int) -> float:
        """Purity of the marginal on a local subset: the sum of the squares
        of its spectrum, the same bits as redfun.spectral_sums' purity."""
        key = self.key(local)
        got = self.purities.get(key)
        if got is None:
            lam = self.spectrum(local)
            got = self.purities[key] = float(np.sum(lam * lam))
        return got


# shared GroupVectors of the named factors, one per (kind, size, dimension),
# for the life of the process.  Their memos hold spectra, purities and
# spectral sums, which are the same whichever state asks first, so sharing cannot change a
# value; they grow with the named shapes and h parameters in use.
_NAMED_GROUPS: dict[tuple, GroupVector] = {}


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalized complex amplitude vector over a layout.

    `groups` are disjoint party bitmasks covering every party, ordered by
    lowest party; the amplitudes are claimed to be a tensor product across
    them.  The default (None) is the one group of all parties.  `vectors`,
    when given, holds one GroupVector per group, in the order of `groups`,
    and claims that the amplitudes are their product up to a global phase;
    when None they are read off the amplitudes on first use
    (group_vectors).  States compare and hash by identity, as arrays have
    no truth value.

    Each state carries the memo of its marginal engine (`_memo`, read and
    filled through kpem.factorize.MarginalCache): h values by (h kind,
    parameter, party bitmask) and the finest factorization.  Nothing in it
    refers back to the state, so a state is freed as soon as it is dropped.
    """

    layout: SystemLayout
    amplitudes: np.ndarray
    groups: Optional[tuple[int, ...]] = field(default=None, kw_only=True)
    vectors: Optional[tuple[GroupVector, ...]] = field(default=None, kw_only=True, repr=False)

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
        order = sorted(range(len(groups)), key=lambda i: groups[i] & -groups[i])
        object.__setattr__(self, "groups", tuple(groups[i] for i in order))
        if self.vectors is not None:
            vectors = tuple(self.vectors)
            if len(vectors) != len(groups):
                raise ValueError(f"{len(vectors)} group vectors for {len(groups)} groups")
            for g, gv in zip(groups, vectors):
                if not isinstance(gv, GroupVector) or gv.dims != self._dims_of(g):
                    raise ValueError(f"group {g:#b} has no vector over its parties' dimensions")
            object.__setattr__(self, "vectors", tuple(vectors[i] for i in order))
        object.__setattr__(self, "_parties", tuple(map(mask_parties, self.groups)))
        object.__setattr__(self, "_memo", {})  # kpem.factorize.MarginalCache's memo
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

    def _dims_of(self, g: int) -> tuple[int, ...]:
        return tuple(self.layout.dims[p] for p in mask_parties(g))

    def group_vectors(self) -> tuple[GroupVector, ...]:
        """One GroupVector per group.  Without carried vectors, a one-group
        state's vector is its amplitudes, and each group of a state with
        more is read off once, as the leading left singular vector of the
        amplitudes' split."""
        if self.vectors is None:
            if len(self.groups) == 1:
                vectors = (GroupVector(self.amplitudes, self.layout.dims),)
            else:
                vectors = tuple(
                    GroupVector(_leading_vector(self.tensor(), mask_parties(g)), self._dims_of(g))
                    for g in self.groups
                )
            object.__setattr__(self, "vectors", vectors)
        return self.vectors

    def cuts(self, mask: int) -> list[tuple[GroupVector, int]]:
        """(group vector, local piece) of every group that `mask` meets but
        does not hold whole, in group order: the marginal on `mask` is the
        product of these pieces' marginals."""
        out = []
        for g, parties, gv in zip(self.groups, self._parties, self.group_vectors()):
            piece = mask & g
            if piece and piece != g:
                out.append((gv, sum(1 << i for i, p in enumerate(parties) if piece >> p & 1)))
        return out


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
    with one group per factor, carrying each factor's vector (a state of
    one explicit factor reads it off its amplitudes, see group_vectors).

    The size caps are checked on the layout before any vector is built.
    """
    dims = [d for f in spec.factors for d in _factor_dims(f)]
    layout = SystemLayout.of(spec.labels, dims)
    check_size_caps(layout, unsafe_large)
    groups, at = [], 0
    for f in spec.factors:
        groups.append(((1 << len(f.labels)) - 1) << at)
        at += len(f.labels)
    vectors = tuple(map(_group_vector, spec.factors))
    vec = _product_vector(layout.dims, groups, [gv.vector for gv in vectors])
    # a product of unit vectors: its norm is near 1, so no scaling is needed
    vec /= np.linalg.norm(vec)
    if len(vectors) == 1 and not vectors[0].symmetric:
        vectors = None  # one explicit factor: the amplitudes are its vector, kept once
    return PureState(layout, vec, groups=tuple(groups), vectors=vectors)


def _group_vector(f: StateFactor) -> GroupVector:
    """A factor's GroupVector: a new one for explicit amplitudes, the
    shared one of its (kind, size, dimension) for a named factor."""
    if isinstance(f, AmplitudesFactor):
        return GroupVector(_factor_vector(f), f.dims)
    key = (type(f).__name__, len(f.labels), getattr(f, "dim", 2))
    gv = _NAMED_GROUPS.get(key)
    if gv is None:
        gv = _NAMED_GROUPS[key] = GroupVector(_factor_vector(f), _factor_dims(f), symmetric=True)
    return gv


def _product_vector(
    dims: Sequence[int],
    groups: Sequence[int],
    vectors: Sequence[np.ndarray],
    order: Optional[Sequence[int]] = None,
) -> np.ndarray:
    """Amplitudes of the tensor product of `vectors` (vector i over the
    parties of groups[i], ascending), with its axes in ascending party
    order, or in `order` (a list of those parties).  The products are formed
    as np.kron forms them, factor by factor."""
    vec = np.ones(1, dtype=np.complex128)
    for v in vectors:
        vec = np.multiply.outer(vec, v).reshape(-1)
    axes = [p for g in groups for p in mask_parties(g)]
    order = sorted(axes) if order is None else list(order)
    if axes == order:
        return vec
    at = {p: a for a, p in enumerate(axes)}
    return vec.reshape([dims[p] for p in axes]).transpose([at[p] for p in order]).reshape(-1)


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


def haar_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unit vector of length dim."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def haar_state(layout: SystemLayout, rng: np.random.Generator) -> PureState:
    """Haar-random pure state; one group, since it is generically entangled."""
    return PureState(layout, haar_vector(layout.total_dim, rng))


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


def _carry(
    sources: Sequence[tuple[int, GroupVector]],
    blocks: Sequence[Sequence[int]],
    dims: Sequence[int],
) -> tuple[tuple[int, ...], tuple[GroupVector, ...]]:
    """The groups and group vectors of an output whose party j joins the
    input parties blocks[j], its digits in that order.  `sources` are
    (input party mask, vector) pairs covering the input parties the blocks
    name; `dims` are the input dimensions.

    Sources that meet in one output party merge into one group.  A source
    that stays alone, each of its parties an output party of its own, keeps
    its GroupVector object when the order inside it is kept, and always
    when the vector is symmetric; any other output group gets a new vector,
    the product of its sources' vectors in the output order.
    """
    owner = {p: j for j, block in enumerate(blocks) for p in block}
    merged: list[tuple[int, list[int]]] = []  # (output mask, source indices)
    for i, (mask, _) in enumerate(sources):
        out, members = 0, [i]
        for p in mask_parties(mask):
            out |= 1 << owner[p]
        # the output masks kept so far are disjoint: one pass finds every overlap
        for other in [m for m in merged if m[0] & out]:
            merged.remove(other)
            out |= other[0]
            members = other[1] + members
        merged.append((out, members))
    groups, vectors = [], []
    for out, members in merged:
        members.sort()
        outs = mask_parties(out)
        order = [p for j in outs for p in blocks[j]]
        gv = sources[members[0]][1]
        if not (len(members) == 1 and len(outs) == len(order)
                and (gv.symmetric or order == sorted(order))):
            vec = _product_vector(dims, [sources[i][0] for i in members],
                                  [sources[i][1].vector for i in members], order)
            gv = GroupVector(vec, [math.prod(dims[p] for p in blocks[j]) for j in outs])
        groups.append(out)
        vectors.append(gv)
    return tuple(groups), tuple(vectors)


def permute_parties(state: PureState, perm: Sequence[int]) -> PureState:
    """Party i of the output is party perm[i] of the input; the groups are
    relabeled with the parties and keep their vectors (see _carry)."""
    n = state.num_parties
    if sorted(perm) != list(range(n)):
        raise ValueError(f"not a permutation of range({n}): {perm}")
    parties = tuple(state.layout.parties[p] for p in perm)
    amp = state.tensor().transpose(perm).reshape(-1)
    groups, vectors = _carry(_sources(state), [(p,) for p in perm], state.layout.dims)
    return PureState(SystemLayout(parties), amp, groups=groups, vectors=vectors)


def regroup(state: PureState, partition: Partition) -> PureState:
    """Merge each partition block into a single composite party.

    Blocks keep canonical order (by smallest member); within a block the
    original party order is kept, so amplitudes are a pure re-indexing.
    The groups a block touches merge into one group of the output; a group
    the blocks leave untouched keeps its vector (see _carry).
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
    groups, vectors = _carry(_sources(state), partition.blocks, dims)
    return PureState(SystemLayout(parties), amp, groups=groups, vectors=vectors)


def _sources(state: PureState) -> list[tuple[int, GroupVector]]:
    return list(zip(state.groups, state.group_vectors()))


def apply_local_unitary(state: PureState, party: int, u: np.ndarray) -> PureState:
    """u acting on one party; a local unitary keeps every group a product,
    and only the vector of the group holding the party changes."""
    d = state.layout.dims[party]
    u = np.asarray(u, dtype=np.complex128)
    if u.shape != (d, d):
        raise ValueError(f"unitary shape {u.shape} != ({d}, {d})")
    vectors = list(state.group_vectors())
    i = next(i for i, g in enumerate(state.groups) if g >> party & 1)
    local = mask_parties(state.groups[i]).index(party)
    vectors[i] = GroupVector(_act(u, vectors[i].tensor(), local), vectors[i].dims)
    return PureState(state.layout, _act(u, state.tensor(), party),
                     groups=state.groups, vectors=tuple(vectors))


def _act(u: np.ndarray, t: np.ndarray, axis: int) -> np.ndarray:
    """u applied to one axis of a tensor, flattened."""
    return np.moveaxis(np.tensordot(u, t, axes=([1], [axis])), 0, axis).reshape(-1)


def _split(t: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """A tensor reshaped to (dim of the kept axes, dim of the rest); `keep`
    ascending."""
    rest = [i for i in range(t.ndim) if i not in keep]
    dk = math.prod(t.shape[i] for i in keep)
    return t.transpose(list(keep) + rest).reshape(dk, -1)


def _svd_weights(t: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Squared singular values of a tensor's split, SVD'd on the smaller
    side, min(d_keep, d_rest) of them.  Values at or below
    numpy.linalg.matrix_rank's default tolerance (the largest one times the
    larger matrix dimension times the float epsilon) are SVD round-off and
    become exact zeros, so they add nothing to any h.  Read-only."""
    m = _split(t, keep)
    if m.shape[0] > m.shape[1]:
        m = m.T  # singular values are side-independent; keep SVD small
    s = np.linalg.svd(m, compute_uv=False)
    s[s <= s[0] * max(m.shape) * np.finfo(s.dtype).eps] = 0.0
    lam = s**2
    lam.flags.writeable = False
    return lam


def _leading_vector(t: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Leading left singular vector of a tensor's split; `keep` ascending."""
    u, _, _ = np.linalg.svd(_split(t, keep), full_matrices=False)
    return u[:, 0]


def pure_restriction(state: PureState, keep: Sequence[int]) -> Optional[PureState]:
    """The kept parties' own pure state, phase-fixed by canonical_phase, or
    None when their marginal is mixed: marginal_purity below
    1 - PURITY_TOL, the same number the factorization and h's threshold
    decide by.  Its groups are the pieces `keep` takes from the state's
    groups, with their own vectors (_own_vectors)."""
    if marginal_purity(state, keep) < 1.0 - PURITY_TOL:
        return None
    keep = sorted(keep)
    layout = state.layout.sub_layout(keep)
    sources = _own_vectors(state, sum(1 << p for p in keep))
    groups, vectors = _carry(sources, [(p,) for p in keep], state.layout.dims)
    amp = _product_vector(layout.dims, groups, [gv.vector for gv in vectors])
    return PureState(layout, canonical_phase(amp), groups=groups, vectors=vectors)


def _own_vectors(state: PureState, mask: int) -> list[tuple[int, GroupVector]]:
    """(party mask, GroupVector) of every piece `mask` takes from the
    state's groups, in group order: the pieces' own states, read off
    without deciding whether their marginals are pure.  The marginal of a
    product is the product of the pieces' marginals, so when it is pure the
    kept state is the product of these.  A group kept whole gives its own
    GroupVector, with no SVD; a piece cut out of a group gives the leading
    left singular vector of its group vector's split, one SVD per piece.
    """
    dims = state.layout.dims
    sources = []
    for g, gv in _sources(state):
        piece = g & mask
        if piece == g:
            sources.append((g, gv))
        elif piece:
            (_, local), = state.cuts(piece)
            vec = _leading_vector(gv.tensor(), mask_parties(local))
            sources.append((piece, GroupVector(vec, [dims[p] for p in mask_parties(piece)])))
    return sources


def reduced_density(state: PureState, keep: Sequence[int]) -> DensityMatrix:
    """Partial trace onto the kept parties (ascending original order)."""
    keep = sorted(keep)
    _check_party_indices(keep, state.num_parties)
    m = _split(state.tensor(), keep)
    rho = m @ m.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return DensityMatrix(state.layout.sub_layout(keep), rho)


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


def marginal_spectrum(state: PureState, keep: Sequence[int]) -> np.ndarray:
    """Spectrum of the reduced state on `keep`, taken on the group vectors.

    Same contract as spectrum(reduced_density(...)), which the tests use as
    the independent oracle, but without forming the density matrix.  On a
    subset inside one group it is the GroupVector's spectrum of the piece
    (the SVD of the group vector's split, see _svd_weights), the spectrum
    every engine value of that subset is taken from; on a union of whole
    groups it is exactly (1, 0, ..., 0); otherwise it is the product of the
    cut pieces' spectra.
    """
    keep = sorted(keep)
    _check_party_indices(keep, state.num_parties)
    dim = math.prod(state.layout.dims[p] for p in keep)
    weights = np.ones(1)
    for gv, local in state.cuts(sum(1 << p for p in keep)):
        lam = gv.spectrum(local)
        if lam.size == dim:
            return lam  # `keep` lies inside this group
        weights = np.multiply.outer(weights, lam[lam > 0.0]).reshape(-1)
    return pad_spectrum(weights, dim)


def pad_spectrum(weights: np.ndarray, dim: int) -> np.ndarray:
    """Spectrum of dimension `dim` whose nonzero part is `weights`: padded
    with zeros, then clip_spectrum."""
    full = np.zeros(dim)
    full[: weights.size] = weights
    return clip_spectrum(full)


def purity(dm: DensityMatrix) -> float:
    """tr(rho^2) = sum |rho_ij|^2 of a Hermitian matrix."""
    return float(np.real(np.vdot(dm.matrix, dm.matrix)))


def marginal_purity(state: PureState, keep: Sequence[int]) -> float:
    """tr(rho_keep^2) as the product, in group order, of the purities of
    the pieces `keep` cuts out of its groups (GroupVector.purity): the
    number that decides "pure" for pure_restriction and the factorization
    (through MarginalCache.purity), and the purity redfun.product_sums
    combines from the same pieces' spectral sums for h's zero rule."""
    keep = sorted(keep)
    _check_party_indices(keep, state.num_parties)
    pur = 1.0
    for gv, local in state.cuts(sum(1 << p for p in keep)):
        pur *= gv.purity(local)
    return pur


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
