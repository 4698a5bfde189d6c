"""k-partite entanglement measures on pure states.

Three families:

* factor family (E_k, calE_k): split the state into its finest pure
  factors and add a per-factor quantity over every genuinely entangled
  factor of size >= k; zero when no factor is that large.
* min family (Eprime_k, C_k, Cq_k, Calpha_k): minimize a per-partition
  score over every partition of the parties into blocks of at most k-1,
  reporting the first minimizer in enumeration order as witness.
* geometric family (CGq_k, CGalpha_k): a normalized geometric mean of the
  per-partition block sums over that same partition family; one partition
  with a vanishing sum annihilates the whole product, and there is no
  witness partition.

Every family goes through one per-state engine, MarginalCache: marginal
spectra and h values keyed by party bitmask (bit i is party i), and the
memoized finest factorization.  A factor's quantities are read off the
marginals of the whole state, so one cache serves every measure and every
k evaluated on the same state.  Party subsets stay bitmasks throughout;
they become party tuples only where a spectrum is taken and in the
reported witnesses and breakdowns.

Spectra are formed from the state's groups (PureState.groups), across
which the amplitudes are a tensor product, so the marginal on X is the
product of the marginals of its pieces X & g:

* X a union of whole groups: the spectrum is exactly (1, 0, ...), no SVD;
* X inside one group: marginal_spectrum of X, bit for bit;
* otherwise: the clipped product (np.kron) of the spectra of the pieces X
  cuts out of its groups, padded with zeros for the whole groups in X.

Pieces are cached by mask and shared by every X that cuts them.  A subset
and its complement share one SVD: its squared singular values are kept
under the side whose split matrix marginal_spectrum SVDs (the smaller, or
X itself at equal dimensions) and padded for each side.  The pieces are
SVD'd on the whole state, not on each group's own vector: reading that
vector off (pure_restriction) costs more than the SVDs it saves on the
small groups of audit states, and whole-state SVDs keep every subset
inside one group bit-identical to marginal_spectrum.

Both partition families read h once per subset of at most k-1 parties.
The min family runs an O(3^n) subset DP for the least block sum per block
count, then a DFS bounded by it re-scores, exactly as an exhaustive sweep
does, every partition that can be the minimizer, keeping only the least:
the witness is the first minimizer in restricted-growth-string order.
The geometric family sums block values over a per-(n, k-1) table of the
family's block masks, cached on first use.

MEASURE_TABLE is the single source of measure-kind rules: each kind's CLI
token, its family and the reduced function it fixes, if any.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations
from typing import Optional, Union

import numpy as np

from .factorize import FactorDecomposition, finest_factorization
from .partitions import Partition, count_k_fineness, iter_block_masks, mask_parties
from .qstate import DensityMatrix, PureState, marginal_spectrum, pad_spectrum
from .redfun import CONCURRENCE, ReducedFunctionSpec, evaluate_spectrum, format_redfun

FACTOR, MIN, GEOMETRIC = "factor", "min", "geometric"


@dataclass(frozen=True)
class MeasureKind:
    """One row of the measure-kind table.

    fixed_h is the reduced-function kind the measure builds in, or None
    when the caller supplies h (the CLI's --h).
    """

    token: str
    family: str
    fixed_h: Optional[str]


MEASURE_TABLE = {
    "C_k": MeasureKind("C", MIN, "concurrence"),
    "Cq_k": MeasureKind("Cq", MIN, "q_family"),
    "Calpha_k": MeasureKind("Calpha", MIN, "alpha_family"),
    "CGq_k": MeasureKind("CGq", GEOMETRIC, "q_family"),
    "CGalpha_k": MeasureKind("CGalpha", GEOMETRIC, "alpha_family"),
    "E_k": MeasureKind("E", FACTOR, None),
    "calE_k": MeasureKind("calE", FACTOR, None),
    "Eprime_k": MeasureKind("Eprime", MIN, None),
}
MEASURE_KINDS = tuple(MEASURE_TABLE)
_KIND_BY_TOKEN = {row.token: kind for kind, row in MEASURE_TABLE.items()}
UNIFIED_KINDS = ("additive", "bipartite_sum", "min_reduced")

PARTITION_COUNT_CAP = 1_000_000   # min-family sweep guard
GEOMETRIC_PARTY_CAP = 9           # product over Gamma grows like Bell(n)


def _takes_parameter(row: MeasureKind) -> bool:
    return row.fixed_h not in (None, CONCURRENCE.kind)


@dataclass(frozen=True)
class MeasureSpec:
    """Which measure, at which k, with which reduced function/parameter."""

    kind: str
    k: int
    h: Optional[ReducedFunctionSpec] = None
    parameter: Optional[float] = None

    def __post_init__(self) -> None:
        row = MEASURE_TABLE.get(self.kind)
        if row is None:
            raise ValueError(f"unknown measure kind {self.kind!r}")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if row.fixed_h is None:
            if self.h is None:
                raise ValueError(f"{self.kind} needs a reduced function")
            if self.parameter is not None:
                raise ValueError(f"{self.kind} takes no parameter")
            return
        if self.h is not None:
            raise ValueError(f"{self.kind} fixes its reduced function")
        if not _takes_parameter(row) and self.parameter is not None:
            raise ValueError(f"{self.kind} is parameter-free ({row.fixed_h} built in)")
        self.reduced_function()  # ReducedFunctionSpec checks q > 1, 0 < alpha < 1

    @property
    def family(self) -> str:
        return MEASURE_TABLE[self.kind].family

    @property
    def name(self) -> str:
        """Display name without k: `E[entropy]`, `Cq(2)`, `C`."""
        row = MEASURE_TABLE[self.kind]
        if row.fixed_h is None:
            return f"{row.token}[{format_redfun(self.h)}]"
        return f"{row.token}({self.parameter:g})" if _takes_parameter(row) else row.token

    def reduced_function(self) -> ReducedFunctionSpec:
        """The function actually applied to each block spectrum."""
        fixed = MEASURE_TABLE[self.kind].fixed_h
        if fixed is None:
            assert self.h is not None
            return self.h
        return ReducedFunctionSpec(fixed, self.parameter)


@dataclass(frozen=True)
class MeasureResult:
    value: float
    witness: Union[Partition, FactorDecomposition, None]
    breakdown: dict


class MarginalCache:
    """Per-state engine: marginal spectra and h values keyed by party
    bitmask (bit i is party i), plus the state's finest factorization.
    Spectra are formed from the state's groups (see the module docstring)."""

    def __init__(self, state: PureState):
        self.state = state
        dims = state.layout.dims
        self._groups = [(g, math.prod(dims[p] for p in mask_parties(g))) for g in state.groups]
        self._spectra: dict[int, np.ndarray] = {}
        self._weights: dict[int, np.ndarray] = {}  # SVD side -> squared singular values
        self._values: dict[tuple, float] = {}
        self._factorization: Optional[FactorDecomposition] = None

    def spectrum(self, mask: int) -> np.ndarray:
        got = self._spectra.get(mask)
        if got is None:
            got = self._spectra[mask] = self._form_spectrum(mask)
        return got

    def _form_spectrum(self, mask: int) -> np.ndarray:
        """The spectrum on `mask`, from the pieces it cuts out of the groups."""
        cut: list[int] = []
        whole = 1  # dimension of the whole groups inside mask
        for g, dim in self._groups:
            if mask & g == g:
                whole *= dim
            elif mask & g:
                cut.append(mask & g)
        if not cut:
            lam = np.zeros(whole)
            lam[0] = 1.0
            return lam
        if len(cut) == 1 and whole == 1:
            return self._piece_spectrum(mask)
        lam = self.spectrum(cut[0])
        for piece in cut[1:]:  # np.kron of 1-d arrays, without its overhead
            lam = np.multiply.outer(lam, self.spectrum(piece)).ravel()
        if len(cut) == 1:  # zeros appended to a clipped spectrum keep it clipped
            padded = np.zeros(lam.size * whole)
            padded[: lam.size] = lam
            return padded
        return pad_spectrum(lam, lam.size * whole)

    def _piece_spectrum(self, piece: int) -> np.ndarray:
        """marginal_spectrum of a part of one group, bit for bit.  Its SVD
        runs on the smaller side of the split (on `piece` at equal
        dimensions), as marginal_spectrum's does, so the squared singular
        values are kept under that side and serve the complement too."""
        state = self.state
        dim = math.prod(state.layout.dims[p] for p in mask_parties(piece))
        side = piece if dim * dim <= state.layout.total_dim else piece ^ ((1 << state.num_parties) - 1)
        weights = self._weights.get(side)
        if weights is None:
            weights = self._weights[side] = marginal_spectrum(state, mask_parties(side), raw=True)
        return pad_spectrum(weights, dim)

    def h_value(self, h: ReducedFunctionSpec, mask: int) -> float:
        key = (h.kind, h.parameter, mask)
        got = self._values.get(key)
        if got is None:
            got = self._values[key] = evaluate_spectrum(h, self.spectrum(mask))
        return got

    def factorization(self) -> FactorDecomposition:
        """finest_factorization of the state, computed on first use."""
        if self._factorization is None:
            self._factorization = finest_factorization(self.state)
        return self._factorization


def _cache_for(state: PureState, cache: Optional[MarginalCache]) -> MarginalCache:
    if cache is None:
        return MarginalCache(state)
    if cache.state is not state:
        raise ValueError("cache belongs to a different state")
    return cache


# --- underlying whole-state quantities ----------------------------------------


def _bipartition_representatives(bits: list[int]) -> list[int]:
    """One party bitmask per bipartition of the parties whose single-party
    masks are `bits`, ascending: the smaller side; for an even count the
    equal halves are represented by the side without the last party; for
    two parties both singles count, which makes the two-party value equal
    the plain bipartite entanglement h(rho_A)."""
    n = len(bits)
    if n == 2:
        return list(bits)
    reps: list[int] = []
    for s in range(1, (n - 1) // 2 + 1):
        reps.extend(map(sum, combinations(bits, s)))
    if n % 2 == 0:
        reps.extend(map(sum, combinations(bits[:-1], n // 2)))
    return reps


def _unified_over(
    kind: str, h: ReducedFunctionSpec, cache: MarginalCache, bits: list[int]
) -> float:
    """unified_mem of the pure sub-state on the parties whose single-party
    masks are `bits`, ascending (a whole factor, or every party), read from
    the marginals of the cached state."""
    if kind == "additive":
        return 0.5 * sum(cache.h_value(h, bit) for bit in bits)
    if kind == "bipartite_sum":
        return 0.5 * sum(cache.h_value(h, rep) for rep in _bipartition_representatives(bits))
    return min(
        cache.h_value(h, sum(sub))
        for s in range(1, len(bits))
        for sub in combinations(bits, s)
    )


def unified_mem(
    kind: str,
    h: ReducedFunctionSpec,
    state: PureState,
    cache: Optional[MarginalCache] = None,
) -> float:
    """Whole-state quantities the factor family is built from.

    additive:       (1/2) sum_i h(rho_i) over single parties
    bipartite_sum:  (1/2) sum over one representative side per bipartition
    min_reduced:    min over proper nonempty party subsets of h(rho_X)
    """
    if kind not in UNIFIED_KINDS:
        raise ValueError(f"unknown unified kind {kind!r}")
    n = state.num_parties
    if n < 2:
        raise ValueError("unified quantities need at least two parties")
    return _unified_over(kind, h, _cache_for(state, cache), [1 << p for p in range(n)])


# --- factor family -------------------------------------------------------------


def measure_factor_family(
    spec: MeasureSpec, state: PureState, cache: Optional[MarginalCache] = None
) -> MeasureResult:
    """Sum the unified quantity of every factor with at least k parties;
    a factor's marginals are marginals of the whole state, so they come
    from the same cache as the factorization."""
    _check_k(spec.k, state.num_parties)
    cache = _cache_for(state, cache)
    dec = cache.factorization()
    unified = "additive" if spec.kind == "E_k" else "bipartite_sum"
    h = spec.reduced_function()
    contributions = tuple(
        (f.parties, _unified_over(unified, h, cache, [1 << p for p in f.parties]))
        for f in dec.factors
        if f.size >= spec.k
    )
    return MeasureResult(
        value=float(sum(v for _, v in contributions)),
        witness=dec,
        breakdown={"factors": contributions},
    )


# --- min family -----------------------------------------------------------------


def _h_by_mask(cache: MarginalCache, h: ReducedFunctionSpec, n: int, b: int) -> list[float]:
    """h of every party subset of at most b parties, indexed by bitmask;
    larger subsets stay 0.0 and are never read as blocks."""
    values = [0.0] * (1 << n)
    bits = [1 << i for i in range(n)]
    for size in range(1, b + 1):
        for mask in map(sum, combinations(bits, size)):
            values[mask] = cache.h_value(h, mask)
    return values


def _low_blocks(mask: int, b: int) -> list[int]:
    """Every block of at most b parties inside `mask` that holds its lowest party."""
    low = mask & -mask
    others = [1 << i for i in mask_parties(mask ^ low)]
    return [
        low | sum(extra)
        for size in range(min(b, len(others) + 1))
        for extra in combinations(others, size)
    ]


def _least_sums(values: list[float], n: int, b: int) -> dict[int, dict[int, float]]:
    """Subset DP: least[mask][m] is the least block sum over partitions of
    `mask` into m blocks of at most b parties, by recursion on the block that
    holds the lowest party.  Only masks reached from the full set are kept."""
    least: dict[int, dict[int, float]] = {0: {0: 0.0}}

    def fill(mask: int) -> dict[int, float]:
        row: dict[int, float] = {}
        for block in _low_blocks(mask, b):
            rest = mask ^ block
            sub = least[rest] if rest in least else fill(rest)
            h = values[block]
            for m, total in sub.items():
                total += h
                if total < row.get(m + 1, math.inf):
                    row[m + 1] = total
        least[mask] = row
        return row

    fill((1 << n) - 1)
    return least


def _min_family_score(kind: str, total: float, m: int) -> float:
    """Score of a partition into m blocks whose block values sum to total."""
    if kind == "Eprime_k":
        return 0.5 * total
    if kind == "C_k":
        return total / m
    return math.sqrt(total / m)  # Cq_k, Calpha_k


def _near_minimal(kind: str, values: list[float], n: int, b: int) -> tuple:
    """The least (score, restricted growth string, block masks) over Gamma_b.
    Only partitions whose DP bound (prefix sum plus least completion) lies
    within 1e-12 * max(1, |V|) of the DP minimum V are re-scored: that slack
    covers the DP's summation order, since the scores come from a
    sweep-order re-sum."""
    least = _least_sums(values, n, b)
    full = (1 << n) - 1
    by_count = {m: _min_family_score(kind, total, m) for m, total in least[full].items()}
    floor = min(by_count.values())
    ceiling = floor + 1e-12 * max(1.0, abs(floor))
    best: tuple = (math.inf,)
    blocks: list[int] = []

    def walk(mask: int, total: float, m: int) -> None:
        nonlocal best
        if not mask:
            score = _min_family_score(kind, sum([values[block] for block in blocks]), m)
            if score > best[0]:
                return
            rgs = [0] * n
            for j, block in enumerate(blocks):
                for i in mask_parties(block):
                    rgs[i] = j
            best = min(best, (score, tuple(rgs), tuple(blocks)))
            return
        left = m - len(blocks) - 1
        for block in _low_blocks(mask, b):
            rest = mask ^ block
            completion = least[rest].get(left)
            if completion is None:
                continue
            partial = total + values[block]
            if _min_family_score(kind, partial + completion, m) > ceiling:
                continue
            blocks.append(block)
            walk(rest, partial, m)
            blocks.pop()

    for m, score in by_count.items():
        if score <= ceiling:
            walk(full, 0.0, m)
    return best


def measure_min_family(
    spec: MeasureSpec,
    state: PureState,
    cache: Optional[MarginalCache] = None,
    unsafe_large: bool = False,
) -> MeasureResult:
    """Minimize the per-partition score over all partitions with blocks of
    at most k-1 parties, by the subset DP and bounded DFS of `_near_minimal`.

    The witness is the first minimizer in restricted-growth-string order,
    the partition the exhaustive sweep would report; the value is its score.
    """
    kind, k = spec.kind, spec.k
    n = state.num_parties
    _check_k(k, n)
    if not unsafe_large and count_k_fineness(n, k - 1) > PARTITION_COUNT_CAP:
        raise ValueError(
            f"|Gamma_{k - 1}| for {n} parties exceeds {PARTITION_COUNT_CAP}; "
            "pass unsafe_large=True to override"
        )
    cache = _cache_for(state, cache)
    values = _h_by_mask(cache, spec.reduced_function(), n, k - 1)
    best, _, blocks = _near_minimal(kind, values, n, k - 1)
    # the DFS adds blocks by their lowest party, so they are canonical
    witness = Partition._trusted(tuple(mask_parties(block) for block in blocks))
    breakdown = {
        "terms": tuple(zip(witness.blocks, (values[block] for block in blocks))),
        "num_blocks": witness.num_blocks,
    }
    return MeasureResult(value=float(best), witness=witness, breakdown=breakdown)


# --- geometric family ------------------------------------------------------------


@lru_cache(maxsize=64)
def _mask_table(n: int, b: int) -> np.ndarray:
    """Gamma_b of n parties as a read-only (n, |Gamma_b|) array of block
    masks: column i holds the blocks of the i-th partition in restricted-
    growth-string order, then zeros (the empty mask, whose h is 0.0)."""
    count = count_k_fineness(n, b)
    pad = (0,) * n
    flat = np.fromiter(
        chain.from_iterable(blocks + pad[len(blocks):] for blocks in iter_block_masks(n, b)),
        dtype=np.min_scalar_type((1 << n) - 1),
        count=count * n,
    )
    table = flat.reshape(count, n).T.copy()
    table.flags.writeable = False
    return table


def measure_geometric_family(
    spec: MeasureSpec,
    state: PureState,
    cache: Optional[MarginalCache] = None,
    unsafe_large: bool = False,
) -> MeasureResult:
    """Geometric-mean family over the same bounded-block partition family.

    value = ( prod_i [sum of block values of partition i] / prod_i m_i
            ) ^ (1 / (2 * family size)),
    computed in log space; any zero partition sum gives exactly 0.  Block
    values are added left to right, so the sums equal a sweep's Python `sum`
    bit for bit where it adds in order (3.11 and older), and to 1e-12 after.
    """
    n = state.num_parties
    _check_k(spec.k, n)
    if not unsafe_large and n > GEOMETRIC_PARTY_CAP:
        raise ValueError(
            f"geometric family capped at {GEOMETRIC_PARTY_CAP} parties; "
            "pass unsafe_large=True to override"
        )
    cache = _cache_for(state, cache)
    values = np.array(_h_by_mask(cache, spec.reduced_function(), n, spec.k - 1))
    table = _mask_table(n, spec.k - 1)
    sums = values[table[0]]
    for blocks in table[1:]:  # one block at a time keeps the temporaries small
        sums = sums + values[blocks]
    totals = sums.tolist()
    counts = np.count_nonzero(table, axis=0).tolist()
    if min(totals) <= 0.0:
        value = 0.0
    else:
        log_ratio = sum(map(math.log, totals)) - sum(map(math.log, counts))
        value = math.exp(log_ratio / (2.0 * len(totals)))
    return MeasureResult(
        value=value,
        witness=None,
        breakdown={"partitions": tuple(zip(counts, totals)), "cardinality": len(totals)},
    )


# --- dispatch ---------------------------------------------------------------------


def _check_k(k: int, n: int) -> None:
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= {n}, got k={k}")


def evaluate_measure(
    spec: MeasureSpec,
    state: PureState,
    cache: Optional[MarginalCache] = None,
    unsafe_large: bool = False,
) -> MeasureResult:
    if spec.family == FACTOR:
        return measure_factor_family(spec, state, cache)
    if spec.family == MIN:
        return measure_min_family(spec, state, cache, unsafe_large=unsafe_large)
    return measure_geometric_family(spec, state, cache, unsafe_large=unsafe_large)


def value_from_breakdown(spec: MeasureSpec, result: MeasureResult) -> float:
    """Recompute the value from witness + breakdown; tests hold this to 1e-10."""
    if spec.family == FACTOR:
        return float(sum(v for _, v in result.breakdown["factors"]))
    if spec.family == MIN:
        total = sum(v for _, v in result.breakdown["terms"])
        return _min_family_score(spec.kind, total, result.breakdown["num_blocks"])
    rows = result.breakdown["partitions"]
    if any(total <= 0.0 for _, total in rows):
        return 0.0
    log_sum = sum(math.log(total) - math.log(m) for m, total in rows)
    return math.exp(log_sum / (2.0 * len(rows)))


def parse_measure(text: str, k: int, h: Optional[ReducedFunctionSpec] = None) -> MeasureSpec:
    """CLI grammar: C | Cq:<q> | Calpha:<a> | CGq:<q> | CGalpha:<a> | E | calE | Eprime."""
    token, colon, arg = text.partition(":")
    kind = _KIND_BY_TOKEN.get(token)
    if kind is None or bool(colon) != _takes_parameter(MEASURE_TABLE[kind]):
        raise ValueError(f"cannot parse measure {text!r}")
    if MEASURE_TABLE[kind].fixed_h is None:
        if h is None:
            raise ValueError(f"--measure {text} needs --h")
        return MeasureSpec(kind, k, h=h)
    if h is not None:
        raise ValueError(f"measure {text} fixes its reduced function; drop --h")
    if not colon:
        return MeasureSpec(kind, k)
    try:
        parameter = float(arg)
    except ValueError:
        raise ValueError(f"cannot parse measure {text!r}") from None
    return MeasureSpec(kind, k, parameter=parameter)


# --- mixed-state upper bound -------------------------------------------------------


def convex_roof_upper_bound(
    spec: MeasureSpec,
    dm: DensityMatrix,
    budget: int,
    seed: int,
    return_trace: bool = False,
):
    """Upper-bound the convex-roof extension by sampled pure ensembles.

    The eigen-ensemble is always tried first, then `budget` random
    ensembles obtained by mixing the support with Haar isometries of
    growing size.  The running minimum is nonincreasing in the budget.
    This is an upper bound only, never claimed tight.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    lam, vecs = np.linalg.eigh(dm.matrix)
    lam = np.real(lam)
    keep = lam > 1e-12
    lam, vecs = lam[keep], vecs[:, keep]
    lam = lam / lam.sum()
    r = lam.size

    def ensemble_value(weights: np.ndarray, members: np.ndarray) -> float:
        total = 0.0
        for p, vec in zip(weights, members.T):
            if p < 1e-15:
                continue
            member = PureState(dm.layout, vec / np.linalg.norm(vec))
            total += p * evaluate_measure(spec, member).value
        return total

    rng = np.random.default_rng(seed)
    best = ensemble_value(lam, vecs)
    trace = [best]
    # every size-m ensemble of rho is scaled @ U.T for an m x r isometry U
    scaled = vecs * np.sqrt(lam)[None, :]
    for i in range(budget):
        m = r + (i % (r + 1))
        if m == 1:
            trace.append(best)  # pure input: only one ensemble exists
            continue
        z = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
        isometry, _ = np.linalg.qr(z)
        members = scaled @ isometry.T
        weights = np.linalg.norm(members, axis=0) ** 2
        val = ensemble_value(weights, members)
        if val < best:
            best = val
        trace.append(best)
    return (best, trace) if return_trace else best
