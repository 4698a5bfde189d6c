"""Labeled qudit systems and pure state vectors, and their marginal engine.

Index convention (bit-exact contract): party 0 is the most significant
digit of the row-major mixed-radix index into the amplitude vector, so for
qubits ABC the basis state |100> sits at index 4.

A PureState carries `groups`: disjoint party bitmasks (bit i is party i)
covering every party, across which its amplitudes are a tensor product,
and one GroupVector per group (`vectors`): the group's own unit vector,
over its parties in ascending order.  The public constructor makes a state
of one group, whose vector is the amplitudes themselves, which claims
nothing.  Every other state is assembled from parts already checked
(PureState._trusted): build_state records one group per declared factor
and keeps each factor's vector, checked once where build_state makes it;
the named factors (GHZ, W, maxent) take one shared GroupVector per
(formula, size, dimension), and maxent is the two-party GHZ.  The
party-wise operations carry the groups and their vectors along (see
_carry), so a permuted, regrouped or restricted copy of a state holds the
same GroupVector objects for the groups it leaves alone, and a carried
vector or a product of checked vectors is not checked again.  Such a state
is its group vectors, which are all the engine reads, and holds no
reference to the state it was made from: its full amplitude vector is the
normalized product of its group vectors, formed only when something reads
`amplitudes`.

Every marginal of a party subset X is taken on the group vectors: X cuts a
piece out of each group it meets, and its marginal is the product of the
pieces' marginals; a union of whole groups is exactly pure.  This module
owns the marginal engine: MarginalCache reads h of a party bitmask off the
memo on the GroupVectors (see GroupVector), shared by every state holding
the same object; a state holds no memo of its own.  A pure marginal's own
state is the product of the pieces' own vectors (_own_vectors): a group
kept whole is its GroupVector, with no SVD, and a cut piece is its group
vector's leading singular vector.  pure_restriction wraps them in a state,
with no global phase fixed, and the factorization's reconstruction check
multiplies them.

"This marginal is pure" is decided by one number, marginal_purity (read
by party mask as _mask_purity): the product of the cut pieces' purities
(GroupVector.purity) against redfun.PURITY_TOL.  pure_restriction, the
factorization search and h's zero rule all take it off the same group
SVDs.  The padded, sorted spectrum contract and the independent
density-matrix route the tests hold the engine against live with the
tests (tests/oracle.py), not here: the engine reads no padded spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .parallel import fork_map
from .partitions import Partition, mask_parties
from .redfun import (
    CONCURRENCE,
    PURITY_TOL,
    ReducedFunctionSpec,
    finish,
    product_sums,
    spectral_sums,
)

NORM_TOL = 1e-12          # state vector norm
SPECTRUM_SUM_TOL = 1e-10  # clipped spectrum must sum to 1 within this
# a pair with ||rho_ij - rho_i (x) rho_j||_2 above this lies inside one
# factor: 10x the 6 sqrt(PURITY_TOL) that any pure cut between them allows.
# A link at the bare bound also prunes only subsets that cannot be pure, so
# the factorization is the same; the 10x only keeps the rounding of a pair's
# distance clear of the bound (so no mutation test tells the two apart)
LINK_TOL = 10 * 6 * math.sqrt(PURITY_TOL)
FIDELITY_TOL = 1e-8       # product reconstructions (factorize)
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
        object.__setattr__(self, "parties", _checked_parties(labels, [d for _, d in self.parties]))
        self._derive(labels)

    def _derive(self, labels: tuple[str, ...]) -> None:
        dims = tuple(d for _, d in self.parties)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "total_dim", math.prod(dims))

    @classmethod
    def of(cls, labels: Sequence[str], dims: Sequence[int]) -> "SystemLayout":
        """Dimensions are Python or numpy integers; floats, strings and
        booleans are rejected, never truncated or parsed.  Past the length
        check, the constructor checks the labels, then the dimensions."""
        if len(labels) != len(dims):
            raise ValueError("labels and dims differ in length")
        return cls(tuple(zip(labels, dims)))

    @classmethod
    def _of_checked_labels(cls, labels: tuple[str, ...], dims: Sequence[int]) -> "SystemLayout":
        """The layout of nonempty labels already checked by _check_labels
        (by StateSpec, or joined from a checked layout's disjoint blocks,
        which keeps them unique and prefix-free): only the dimensions are
        checked, once, as the constructor checks them."""
        self = object.__new__(cls)
        object.__setattr__(self, "parties", _checked_parties(labels, dims))
        self._derive(labels)
        return self

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
        return SystemLayout._of_checked_labels(
            tuple(self.labels[i] for i in idx), [self.dims[i] for i in idx])


def _checked_parties(labels: tuple[str, ...], dims: Sequence[int]) -> tuple[tuple[str, int], ...]:
    """The layout's one dimension rule: each dimension is a Python or numpy
    integer of at least 2, stored as int; a bool, float or string is
    refused, never truncated or parsed."""
    parties = []
    for lab, d in zip(labels, dims):
        if isinstance(d, bool) or not isinstance(d, (int, np.integer)):
            raise ValueError(f"party {lab!r} has invalid dimension {d!r}")
        d = int(d)
        if d < 2:
            raise ValueError(f"party {lab!r} has invalid dimension {d!r}")
        parties.append((lab, d))
    return tuple(parties)


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

    The memo lives on the object and serves every state holding it.  It
    has two parts: `weights` maps an SVD'd side (a local mask) to its
    normalized squared singular values (_svd_weights: the spectrum of the
    side and of its complement in the group, with no zero tail), and
    `sums` maps (h kind, parameter, key of the local piece) to the piece's
    redfun.spectral_sums (piece_sums).  A
    piece's purity is its concurrence entry, whose sums are (purity,
    purity), so it is stored once.  MarginalCache combines the sums into h
    values on every call and keeps no memo of its own.
    """

    __slots__ = ("vector", "dims", "symmetric", "weights", "sums")

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
        self.sums: dict[tuple, tuple[float, float]] = {}

    def tensor(self) -> np.ndarray:
        return self.vector.reshape(self.dims)

    def key(self, local: int) -> int:
        """The local mask the memo files `local` under."""
        return (1 << local.bit_count()) - 1 if self.symmetric else local

    def side(self, local: int) -> int:
        """The memo key in `weights` of a local subset's spectrum: the
        smaller side of the group's split, as in _svd_weights, whose
        weights serve the complement too.  At equal dimensions it is the
        lower of the two sides' keys, so a piece and its complement read
        one SVD either way; the whole group is its own side."""
        local = self.key(local)
        rest = local ^ ((1 << len(self.dims)) - 1)
        if not rest:
            return local
        square = math.prod(self.dims[i] for i in mask_parties(local)) ** 2
        if square < self.vector.size:
            return local
        rest = self.key(rest)
        return rest if square > self.vector.size else min(local, rest)

    def spectrum(self, local: int) -> np.ndarray:
        """Spectrum of the marginal on a local subset, without a zero
        tail: the normalized weights of its side (`side`) as _svd_weights
        gives them, descending, min(d_local, d_rest) of them.  A piece and
        its complement in the group read the same array."""
        side = self.side(local)
        weights = self.weights.get(side)
        if weights is None:
            weights = self.weights[side] = _svd_weights(self.tensor(), mask_parties(side))
        return weights

    def piece_sums(self, h: ReducedFunctionSpec, local: int) -> tuple[float, float]:
        """redfun.spectral_sums of the spectrum of a local piece, memoized."""
        key = (h.kind, h.parameter, self.key(local))
        got = self.sums.get(key)
        if got is None:
            got = self.sums[key] = spectral_sums(h, self.spectrum(local))
        return got

    def purity(self, local: int) -> float:
        """Purity of the marginal on a local subset: the sum of the squares
        of its spectrum, read off its concurrence sums."""
        return self.piece_sums(CONCURRENCE, local)[0]


# shared GroupVectors of the named factors, one per (formula, size,
# dimension), for the life of the process; maxent takes the GHZ formula.
# Their memos hold weights and spectral sums, which are the same whichever
# state asks first, so sharing cannot change a value; they grow with the
# named shapes and h parameters in use.
_NAMED_GROUPS: dict[tuple, GroupVector] = {}


class PureState:
    """Normalized complex amplitude vector over a layout.

    `groups` are disjoint party bitmasks covering every party, ordered by
    lowest party, across which the amplitudes are a tensor product, and
    `vectors` holds one GroupVector per group, in the same order.  The
    constructor checks the amplitudes' length, finiteness and norm, and
    makes a state of one group, the whole layout, whose GroupVector holds
    the amplitudes themselves (the same read-only array, no second copy).
    States compare and hash by identity, as arrays have no truth value,
    and are immutable.

    Every other state is assembled by build_state or a party-wise
    operation from parts already checked (_trusted): it is its group
    vectors, which are all the engine reads, and `amplitudes`, the full
    vector, is one formula for every such state, formed on first read:
    the normalized product of the group vectors in party order
    (_unit_product).  Each group of two or more parties also keeps its
    maximal runs of consecutive parties, from which `cuts` maps a party
    mask to the group's local mask with one shift per run.

    A state keeps no memo of its marginals: they are memoized on its
    GroupVectors, which refer to no state, and a state made from another
    holds only GroupVectors, so a state is freed as soon as it is dropped.
    """

    __slots__ = ("layout", "groups", "vectors", "_cut", "_amplitudes", "__weakref__")

    def __init__(self, layout: SystemLayout, amplitudes: np.ndarray) -> None:
        amp = np.asarray(amplitudes, dtype=np.complex128).reshape(-1)
        if amp.shape != (layout.total_dim,):
            raise ValueError(f"amplitude length {amp.size} != total dimension {layout.total_dim}")
        _check_unit(amp)
        amp = amp.copy()
        amp.flags.writeable = False
        gv = GroupVector(amp, layout.dims)
        self._assemble(layout, ((1 << layout.num_parties) - 1,), (gv,), gv.vector)

    @classmethod
    def _trusted(
        cls, layout: SystemLayout, groups: Sequence[int], vectors: Sequence[GroupVector]
    ) -> "PureState":
        """A state assembled from parts already checked, with no check:
        `groups` disjoint party masks covering the layout, `vectors` their
        unit GroupVectors."""
        self = object.__new__(cls)
        self._assemble(layout, groups, vectors, None)
        return self

    def _assemble(
        self,
        layout: SystemLayout,
        groups: Sequence[int],
        vectors: Sequence[GroupVector],
        amplitudes: Optional[np.ndarray],
    ) -> None:
        """Set the fields, with groups and vectors ordered by lowest party."""
        order = sorted(range(len(groups)), key=lambda i: groups[i] & -groups[i])
        groups = tuple(groups[i] for i in order)
        vectors = tuple(vectors[i] for i in order)
        _set = object.__setattr__
        _set(self, "layout", layout)
        _set(self, "groups", groups)
        _set(self, "vectors", vectors)
        _set(self, "_cut", _cut_groups(groups, vectors))
        _set(self, "_amplitudes", amplitudes)

    def __setattr__(self, name, value):
        raise AttributeError(f"PureState is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"PureState is immutable: cannot delete {name!r}")

    def __repr__(self) -> str:
        return f"PureState({self.layout!r}, groups={self.groups!r})"

    @property
    def amplitudes(self) -> np.ndarray:
        """The full amplitude vector (read-only).  A state assembled from
        its group vectors forms it on first read, as their product in
        party order divided by its norm (_unit_product)."""
        amp = self._amplitudes
        if amp is None:
            amp = _unit_product(self.layout.dims, self.groups, [gv.vector for gv in self.vectors])
            amp.flags.writeable = False
            object.__setattr__(self, "_amplitudes", amp)
        return amp

    @property
    def num_parties(self) -> int:
        return self.layout.num_parties

    def tensor(self) -> np.ndarray:
        """Amplitudes reshaped to one axis per party (read-only view)."""
        return self.amplitudes.reshape(self.layout.dims)

    def cuts(self, mask: int) -> list[tuple[GroupVector, int]]:
        """(group vector, local piece) of every group that `mask` meets but
        does not hold whole, in group order: the marginal on `mask` is the
        product of these pieces' marginals.  Only the groups of two or more
        parties are visited, as a single party is empty or whole in any
        mask.  The local piece is put together run by run: a run of
        consecutive parties of the group holds consecutive local bits, so
        each run's bits move by one shift (_bit_runs)."""
        out = []
        for g, runs, gv in self._cut:
            piece = mask & g
            if piece and piece != g:
                local = 0
                for run, shift in runs:
                    local |= (piece & run) >> shift
                out.append((gv, local))
        return out


def _cut_groups(
    groups: Sequence[int], vectors: Sequence[GroupVector]
) -> tuple[tuple[int, tuple[tuple[int, int], ...], GroupVector], ...]:
    """(group, its bit runs, its vector) of every group that a mask can
    cut, those of two or more parties, in group order."""
    return tuple((g, _bit_runs(g), gv) for g, gv in zip(groups, vectors) if g & (g - 1))


def _bit_runs(g: int) -> tuple[tuple[int, int], ...]:
    """(run mask, shift) of each maximal run of consecutive set bits of a
    group mask, lowest first.  The shift is the run's lowest party minus
    the number of the group's parties below it, so (mask & run) >> shift
    is the run's part of a local mask (GroupVector: local bit i is the
    group's i-th lowest party)."""
    runs, below = [], 0
    while g:
        low = g & -g
        run = g & ~(g + low)
        runs.append((run, low.bit_length() - 1 - below))
        below += run.bit_count()
        g ^= run
    return tuple(runs)


def _check_unit(vec: np.ndarray, what: str = "state") -> None:
    """Raise NumericalContractError unless every entry of vec is finite and
    its norm is within NORM_TOL of 1.  Both are read off one sum of
    squares, which is NaN or infinite when an entry is; only then are the
    entries themselves tested, to tell that from an overflowing norm."""
    squares = float(np.vdot(vec, vec).real)
    if not math.isfinite(squares) and not np.isfinite(vec).all():
        raise NumericalContractError(f"{what} has non-finite amplitudes")
    norm = math.sqrt(squares)
    if not abs(norm - 1.0) <= NORM_TOL:
        raise NumericalContractError(f"{what} norm {norm} deviates from 1")


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
        if not any(f.amplitudes):
            raise ValueError("zero amplitude vector")


def _factor_dims(f: StateFactor) -> tuple[int, ...]:
    if isinstance(f, AmplitudesFactor):
        return f.dims
    return (getattr(f, "dim", 2),) * len(f.labels)  # W factors are qubits


def _factor_vector(f: StateFactor) -> np.ndarray:
    if isinstance(f, (GhzFactor, MaxEntFactor)):  # maxent is the two-party GHZ
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
    if isinstance(f, AmplitudesFactor):
        return _normalized(np.asarray(f.amplitudes, dtype=np.complex128))
    raise TypeError(f"unknown factor: {f!r}")


def build_state(spec: StateSpec, unsafe_large: bool = False) -> PureState:
    """Materialize a StateSpec as a PureState in the listed party order,
    with one group per factor, each a run of consecutive parties, carrying
    each factor's vector.  The amplitudes are the product of the factors'
    vectors in party order, divided by its norm; a state of one explicit
    factor is built from them by the public constructor, whose one group
    vector is the amplitudes, and any other state forms them on first
    read.  Each explicit factor's normalized vector is checked once, here.

    The layout takes the labels as StateSpec has checked them, and checks
    each dimension once (SystemLayout._of_checked_labels).  The size caps
    are checked on the layout before any vector is built.
    """
    dims = [d for f in spec.factors for d in _factor_dims(f)]
    layout = SystemLayout._of_checked_labels(spec.labels, dims)
    check_size_caps(layout, unsafe_large)
    groups, at = [], 0
    for f in spec.factors:
        groups.append(((1 << len(f.labels)) - 1) << at)
        at += len(f.labels)
    if len(spec.factors) == 1 and isinstance(spec.factors[0], AmplitudesFactor):
        # one explicit factor: the amplitudes are its vector, checked and kept once
        vec = _unit_product(layout.dims, groups, [_factor_vector(spec.factors[0])])
        return PureState(layout, vec)
    return PureState._trusted(layout, groups, tuple(map(_group_vector, spec.factors)))


def _unit_product(
    dims: Sequence[int], groups: Sequence[int], vectors: Sequence[np.ndarray]
) -> np.ndarray:
    """_product_vector in ascending party order, divided by its norm."""
    vec = _product_vector(dims, groups, vectors)
    # a product of unit vectors: its norm is near 1, so no scaling is needed
    vec /= np.linalg.norm(vec)
    return vec


def _group_vector(f: StateFactor) -> GroupVector:
    """A factor's GroupVector: a new one for explicit amplitudes, whose
    normalized vector is checked (_check_unit), the shared one of its
    (formula, size, dimension) for a named factor, so a maxent factor and
    a two-party GHZ of its dimension share one."""
    if isinstance(f, AmplitudesFactor):
        vec = _factor_vector(f)
        _check_unit(vec, f"factor {''.join(f.labels)}")
        vec.flags.writeable = False  # a fresh array: the GroupVector keeps it uncopied
        return GroupVector(vec, f.dims)
    key = ("w" if isinstance(f, WFactor) else "ghz", len(f.labels), getattr(f, "dim", 2))
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
    representable normalizes to the same bits as without the scaling.  A
    non-finite entry raises NumericalContractError before any arithmetic
    on it.
    """
    parts = np.ascontiguousarray(vec, dtype=np.complex128).view(np.float64)
    top = float(np.abs(parts).max())
    if not math.isfinite(top):
        raise NumericalContractError("state has non-finite amplitudes")
    _, exp = math.frexp(top)
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
    amps = np.empty(len(obj["re"]), dtype=np.complex128)
    # set part by part: r + 1j * i would turn a -0.0 real part into +0.0
    amps.real = _finite_floats(obj["re"], "re", where)
    amps.imag = _finite_floats(obj["im"], "im", where)
    dims = tuple(_json_int(d, "dims", where) for d in obj["dims"])
    return AmplitudesFactor(labels, dims, tuple(amps.tolist()))


def _finite_floats(values: list, key: str, where: str) -> np.ndarray:
    """A JSON array of finite numbers as float64.  Its entries must be
    exactly int or float (not bool, not str); an integer beyond the float
    range and a NaN or infinity, which json reads, are rejected too, and
    the message names the first bad entry."""
    arr = None
    if set(map(type, values)) <= {int, float}:
        try:
            arr = np.array(values, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            pass
    if arr is None or not np.isfinite(arr).all():
        x = next(x for x in values if _not_finite_number(x))
        raise ValueError(f"{where}: {key!r} entries must be finite numbers, got {x!r}")
    return arr


def _not_finite_number(x) -> bool:
    try:
        return type(x) not in (int, float) or not math.isfinite(x)
    except OverflowError:
        return True


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
    """Haar-random unit vector of length dim: z / ||z||, the norm taken as
    numpy.linalg.norm takes it for complex input, sqrt(re.re + im.im)."""
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    re, im = z.real, z.imag
    return z / math.sqrt(re.dot(re) + im.dot(im))


def random_pure(layout: SystemLayout, seed: int, unsafe_large: bool = False) -> PureState:
    """Haar-distributed pure state, deterministic for a given seed; one
    group, since it is generically entangled."""
    check_size_caps(layout, unsafe_large)
    return PureState(layout, haar_vector(layout.total_dim, np.random.default_rng(seed)))


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
    return _join(state, [(p,) for p in perm])


def regroup(state: PureState, partition: Partition) -> PureState:
    """Merge each partition block into a single composite party.

    Blocks keep canonical order (by smallest member); within a block the
    original party order is kept, so amplitudes are a pure re-indexing.
    The groups a block touches merge into one group of the output; a group
    the blocks leave untouched keeps its vector (see _carry).
    """
    if partition.parties != tuple(range(state.num_parties)):
        raise ValueError("partition must cover all parties of the state")
    return _join(state, partition.blocks)


def _join(state: PureState, blocks: Sequence[Sequence[int]]) -> PureState:
    """The state whose party j joins the input parties blocks[j], its
    digits in that order: labels joined, dimensions multiplied.  It holds
    the carried group vectors (_carry) and nothing of the input state.  The
    joined labels of disjoint blocks of checked labels are unique and
    prefix-free again, so they are not checked twice
    (SystemLayout._of_checked_labels)."""
    labels, dims = state.layout.labels, state.layout.dims
    layout = SystemLayout._of_checked_labels(
        tuple("".join(labels[i] for i in block) for block in blocks),
        [math.prod(dims[i] for i in block) for block in blocks],
    )
    return PureState._trusted(layout, *_carry(_sources(state), blocks, dims))


def _sources(state: PureState) -> list[tuple[int, GroupVector]]:
    return list(zip(state.groups, state.vectors))


def _split(t: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """A tensor reshaped to (dim of the kept axes, dim of the rest); `keep`
    ascending."""
    rest = [i for i in range(t.ndim) if i not in keep]
    dk = math.prod(t.shape[i] for i in keep)
    return t.transpose(list(keep) + rest).reshape(dk, -1)


# a split oriented wide, d_short x d_long, is QR-reduced before its SVD when
# d_long >= _QR_ASPECT * d_short and d_short * d_long >= _QR_SIZE: there the
# Householder QR and the small SVD beat one SVD of the wide split (1.2x at
# 8 x 128, 3.5x at 2 x 2048 on OpenBLAS 0.3.31, one thread, a 2-vCPU Xeon
# VM), and below it, or on near-square splits (0.64x at 32 x 32), they lose
_QR_ASPECT = 2
_QR_SIZE = 1024


def _svd_weights(t: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Squared singular values of a tensor's split, min(d_keep, d_rest) of
    them.  The split is oriented wide, d_short x d_long; when it is large
    and clearly non-square (_QR_ASPECT, _QR_SIZE) its long side is first
    reduced by a Householder QR, and the d_short x d_short R, which has the
    same singular values, is SVD'd instead (Chan's R-SVD; backward stable,
    and no Gram matrix is formed).  Values at or below
    numpy.linalg.matrix_rank's default tolerance for the split (the largest
    one times d_long times the float epsilon) are round-off and become
    exact zeros, so they add nothing to any h.  The squares are then
    clipped above at 1 and divided by their sum, once, after the sum is
    checked against SPECTRUM_SUM_TOL: the result is the normalized
    spectrum of the marginal on either side of the split, descending, in
    [0, 1], with no zero tail.  A non-finite entry fails that check, or the
    SVD itself; either raises NumericalContractError.  Read-only."""
    m = _split(t, keep)
    if m.shape[0] > m.shape[1]:
        m = m.T  # singular values are side-independent; keep SVD small
    short, long = m.shape
    if long >= _QR_ASPECT * short and short * long >= _QR_SIZE:
        m = np.linalg.qr(m.T, mode="r")
    try:
        s = np.linalg.svd(m, compute_uv=False)
    except np.linalg.LinAlgError as exc:  # LAPACK's answer to a NaN entry
        raise NumericalContractError(f"SVD of a {short} x {long} split: {exc}") from exc
    s[s <= s[0] * long * np.finfo(s.dtype).eps] = 0.0
    lam = np.minimum(s**2, 1.0)
    total = float(lam.sum())
    if not abs(total - 1.0) <= SPECTRUM_SUM_TOL:  # NaN fails too
        raise NumericalContractError(f"spectrum sums to {total}")
    lam /= total
    lam.flags.writeable = False
    return lam


def _leading_vector(t: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Leading left singular vector of a tensor's split; `keep` ascending."""
    u, _, _ = np.linalg.svd(_split(t, keep), full_matrices=False)
    return u[:, 0]


def pure_restriction(state: PureState, keep: Sequence[int]) -> Optional[PureState]:
    """The kept parties' own pure state, or None when their marginal is
    mixed: marginal_purity below 1 - PURITY_TOL, the same number the
    factorization and h's threshold decide by.  Its groups are the pieces
    `keep` takes from the state's groups, with their own vectors
    (_own_vectors), and its amplitudes are their product, like any
    assembled state's; no global phase is fixed (a cut piece's leading
    singular vector has LAPACK's phase)."""
    if marginal_purity(state, keep) < 1.0 - PURITY_TOL:
        return None
    keep = sorted(keep)
    layout = state.layout.sub_layout(keep)
    sources = _own_vectors(state, sum(1 << p for p in keep))
    return PureState._trusted(layout, *_carry(sources, [(p,) for p in keep], state.layout.dims))


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


def marginal_purity(state: PureState, keep: Sequence[int]) -> float:
    """tr(rho_keep^2) of a party subset, checked: _mask_purity of its
    mask."""
    keep = sorted(keep)
    _check_party_indices(keep, state.num_parties)
    return _mask_purity(state, sum(1 << p for p in keep))


def _mask_purity(state: PureState, mask: int) -> float:
    """tr(rho^2) of the marginal on a nonempty party bitmask, as the
    product, in group order, of the purities of the pieces it cuts out of
    the groups (GroupVector.purity): the number that decides "pure" for
    pure_restriction and factorize.finest_factorization.  Each piece's
    purity is the first of its spectral sums, which redfun.product_sums
    multiplies in the same order for h's zero rule."""
    pur = 1.0
    for gv, local in state.cuts(mask):
        pur *= gv.purity(local)
    return pur


# --- the marginal engine -----------------------------------------------------


class MarginalCache:
    """The marginal engine of one state: h values keyed by party bitmask
    (bit i is party i), formed from the pieces a mask cuts out of the
    state's groups (see kpem.measures).  It holds no memo: each piece's
    spectral sums are memoized on its GroupVector (GroupVector.piece_sums),
    so every state holding that object shares them, and each piece is SVD'd
    once, for the factorization and for h together.

    h_values reads a batch of masks.  When the batch's SVDs cost at least
    FORK_COST, it first takes every missing one through parallel.fork_map,
    so a large batch runs on every CPU in the process's affinity; the
    weights are those of the one-process path, bit for bit."""

    __slots__ = ("state",)

    def __init__(self, state: PureState):
        self.state = state

    def h_value(self, h: ReducedFunctionSpec, mask: int) -> float:
        """h of the marginal on `mask`, from the raw spectral sums of the
        pieces it cuts out of the groups (redfun.product_sums); the purity
        threshold is applied once, at the end (redfun.finish).  A whole
        group inside mask is pure and adds nothing.  Each piece's sums are
        read straight off its GroupVector's memo, and taken by
        GroupVector.piece_sums only when they are not there yet."""
        kind, parameter = h.kind, h.parameter
        pieces = []
        for gv, local in self.state.cuts(mask):
            got = gv.sums.get((kind, parameter, gv.key(local)))
            pieces.append(gv.piece_sums(h, local) if got is None else got)
        return finish(h, product_sums(h, pieces))

    def h_values(self, h: ReducedFunctionSpec, masks: Sequence[int]) -> list[float]:
        """[h_value(h, mask) for mask in masks].  A batch whose SVDs could
        cost FORK_COST (bounded from the mask count and the group
        dimensions) first fills the weights of every missing SVD side
        (GroupVector.side) of its pieces; the fill forks only when their
        estimated cost, d_small^2 * d_large each, reaches FORK_COST."""
        bound = len(masks) * sum(gv.vector.size ** 1.5 for gv in self.state.vectors)
        if bound >= FORK_COST:
            _fill_weights(self.state, masks)
        return [self.h_value(h, mask) for mask in masks]


# estimated cost (the sum of d_small^2 * d_large over a batch's SVDs) from
# which the batch forks.  On a 2-vCPU VM, medians of 15 alternating runs of
# the batch in one process and forked into two (BENCH_30.json, break_even):
# 2.1e6 took 5.5 and 8.1 ms, 3.2e6 15.6 and 17.2 ms, 4.6e6 (the largest
# batch of the benchmark's sweep) 23.1 and 21.6 ms, 8.4e6 and 8.6e6 gained
# 10% and 26%, and from 1.4e7 on every batch gained 20-41%: 2.9e7 (8
# qutrits) 40.9 and 27.4 ms, 3.7e7 (7 ququarts) 42.2 and 25.8 ms, 2.7e8
# (12 qubits) 451 and 266 ms.  The bound sits at about 2.5 times the
# break-even (near 4e6), so a batch forks only where the gain is clear of
# the fork's own noise
FORK_COST = 1e7


def _fill_weights(state: PureState, masks: Sequence[int]) -> None:
    """Take the missing SVD sides of the pieces `masks` cut out of the
    state's groups, costliest first, through fork_map when their total
    estimated cost reaches FORK_COST, and store each side's weights."""
    missing: dict[tuple[int, int], tuple[int, GroupVector, int]] = {}
    for mask in masks:
        for gv, local in state.cuts(mask):
            side = gv.side(local)
            if side not in gv.weights and (id(gv), side) not in missing:
                dim = math.prod(gv.dims[i] for i in mask_parties(side))
                small = min(dim, gv.vector.size // dim)
                missing[id(gv), side] = (small * gv.vector.size, gv, side)
    sides = sorted(missing.values(), key=lambda job: -job[0])
    if sum(cost for cost, _, _ in sides) < FORK_COST:
        return
    weights = fork_map(_svd_weights, [(gv.tensor(), mask_parties(side)) for _, gv, side in sides])
    for (_, gv, side), lam in zip(sides, weights):
        lam.flags.writeable = False
        gv.weights[side] = lam


def canonical_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a vector's global phase so its first entry above 1e-12 in
    modulus is real > 0.  Entry 0 is tested first; only when it is not
    above the threshold are the entries scanned."""
    if vec.size and abs(vec[0]) > 1e-12:
        z = vec[0]
    else:
        idx = np.flatnonzero(np.abs(vec) > 1e-12)
        if idx.size == 0:
            raise ValueError("zero vector")
        z = vec[idx[0]]
    return vec * (abs(z) / z)
