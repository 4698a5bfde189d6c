"""k-partite entanglement measures on pure states.

Three families:

* factor family (E_k, calE_k): split the state into its finest pure
  factors and add a per-factor quantity over every genuinely entangled
  factor of size >= k; zero when no factor is that large.
* min family (Eprime_k, C_k, Cq_k, Calpha_k): minimize a per-partition
  score over every partition of the parties into blocks of at most k-1;
  the witness is the first partition in enumeration (restricted-growth-
  string) order that scores within WITNESS_TOL of the minimum, and the
  value is its score.
* geometric family (CGq_k, CGalpha_k): a normalized geometric mean of the
  per-partition block sums over that same partition family; one partition
  with a vanishing sum annihilates the whole product, and there is no
  witness partition.

Every family goes through one marginal engine, MarginalCache (defined in
kpem.qstate): h values keyed by party bitmask (bit i is party i).  The
factorization's purities are the same pieces' concurrence sums, and a
factor's quantities are read off the marginals of the whole state.  Party
subsets stay bitmasks throughout; they become party tuples only where a
spectrum is taken and in the reported witnesses and breakdowns.

h is formed from the state's groups (PureState.groups), across which the
amplitudes are a tensor product, so the marginal on X is the product of
the marginals of the pieces X & g that X cuts out of its groups.  Every h
is a function of two spectral sums (redfun.spectral_sums) that combine
simply across a product: purities and power sums multiply, entropies add.
So h on X is redfun.finish of the combined raw sums of its pieces
(redfun.product_sums), and the purity threshold is applied once, to the
combined purity; no product spectrum is formed.  In particular:

* X a union of whole groups: h is exactly 0.0, with no SVD;
* X inside one group: h of its piece's normalized SVD weights, with no
  zero tail, within 1e-12 of h of X's padded, sorted spectrum (the tests'
  oracle, tests/oracle.py); bit for bit h of X's complement in the group
  when the two share one SVD (unequal dimensions).

Each piece is SVD'd on its own group's vector (qstate.GroupVector), not on
the whole state.  Its squared singular values, normalized once at the SVD
(qstate._svd_weights), are kept under the side of the group's split that
the SVD ran on (the smaller, or the piece itself at equal dimensions) and
serve the piece and its complement in the group;
its spectral sums are cached by (h, piece), and its purity is the first
of its concurrence sums.  The memos live on the GroupVector object, so
every state holding that object shares them: the permuted, regrouped and
restricted copies a postulate check makes keep the objects of the groups
they leave alone, and the named factors (GHZ, W, maxent) share one object
per shape, keyed by subset size, as their vectors do not change under
reordering.  They are the engine's only memo: h is combined from its
pieces' sums on every read, which takes no SVD, so evaluating the same
state again, at any k and for any measure, takes none either.

Every family reads h over a batch of subsets through
MarginalCache.h_values: calE's one side per bipartition of a factor, the
partition families' subsets of at most k-1 parties, and unified_mem's
batches.  A batch whose missing SVDs reach an estimated cost of FORK_COST
= 1e7 (calE on 7 Haar ququarts: 35 SVDs, about 3.7e7; on 12 Haar qubits:
1,969 SVDs, about 2.7e8) takes them on every CPU in the process's
affinity through kpem.parallel.fork_map, before any h is read; the
weights, and so every value and witness, are those of one process, bit
for bit.

Both partition families read h once per subset of at most k-1 parties.
The min family runs an O(3^n) subset DP for the least block sum per block
count V, then a DFS bounded by it visits every partition that scores
within tau = WITNESS_TOL * max(1, |V|) of the minimum and keeps the least
in restricted-growth-string (RGS) order.  That partition is the witness
and its score is the value: partitions that tie up to rounding cannot
change the witness, whichever last bits the SVDs give.
The geometric family sums block values over a per-(n, k-1) table of block
masks, cached with the family's sum of log m; its breakdown is the family size.

Both partition families have one size rule (_block_values): 2 <= k <= n,
and |Gamma_{k-1}| at most PARTITION_COUNT_CAP = 10^6 unless unsafe_large.
Under qstate.PARTY_CAP that admits 57 (n, k-1) mask tables, 129 MB in all,
so _mask_table's cache of 64 never evicts.  The largest, (11, 10), has
678,569 columns (15 MB): CGq_11 on 11 Haar qubits takes 0.6-1.0 s cold,
about 0.13 s of it the table's build, and 0.1 s warm, and the whole
`kpem compute` process peaks at 81 MB (2-vCPU VM).

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
from .partitions import Partition, block_masks, check_integer_k, count_k_fineness, mask_parties
from .qstate import MarginalCache, PureState
from .redfun import CONCURRENCE, ReducedFunctionSpec, format_redfun, parse_parameter

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

PARTITION_COUNT_CAP = 1_000_000   # |Gamma_{k-1}| guard of both partition families
_LOW_BLOCKS_CACHE = 1 << 12       # entries of the _low_blocks memo (at most 33 MB)
WITNESS_TOL = 1e-12               # tau: min-family witness band, relative to max(1, |V|)


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
        check_integer_k(self.k, 2)
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
    the marginals of the engine's state."""
    if kind == "additive":
        return 0.5 * sum(cache.h_value(h, bit) for bit in bits)
    if kind == "bipartite_sum":
        return 0.5 * sum(cache.h_values(h, _bipartition_representatives(bits)))
    return min(cache.h_values(h, [
        sum(sub) for s in range(1, len(bits)) for sub in combinations(bits, s)
    ]))


def unified_mem(kind: str, h: ReducedFunctionSpec, state: PureState) -> float:
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
    return _unified_over(kind, h, MarginalCache(state), [1 << p for p in range(n)])


# --- factor family -------------------------------------------------------------


def measure_factor_family(spec: MeasureSpec, state: PureState) -> MeasureResult:
    """Sum the unified quantity of every factor with at least k parties;
    a factor's marginals are marginals of the whole state, so they come
    off the same pieces' SVDs as the factorization."""
    _check_k(spec.k, state.num_parties)
    dec = finest_factorization(state)
    cache = MarginalCache(state)
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


# --- partition families ----------------------------------------------------------


def _h_by_mask(cache: MarginalCache, h: ReducedFunctionSpec, n: int, b: int) -> list[float]:
    """h of every party subset of at most b parties, indexed by bitmask;
    larger subsets stay 0.0 and are never read as blocks."""
    values = [0.0] * (1 << n)
    bits = [1 << i for i in range(n)]
    masks = [sum(sub) for size in range(1, b + 1) for sub in combinations(bits, size)]
    for mask, value in zip(masks, cache.h_values(h, masks)):
        values[mask] = value
    return values


def _block_values(spec: MeasureSpec, state: PureState, unsafe_large: bool) -> list[float]:
    """_h_by_mask over Gamma_{k-1}, the one partition family of the min and
    geometric families, after the one size rule of both: 2 <= k <= n, and
    |Gamma_{k-1}| at most PARTITION_COUNT_CAP unless unsafe_large."""
    n, k = state.num_parties, spec.k
    _check_k(k, n)
    if not unsafe_large and count_k_fineness(n, k - 1) > PARTITION_COUNT_CAP:
        raise ValueError(
            f"|Gamma_{k - 1}| for {n} parties exceeds {PARTITION_COUNT_CAP}; "
            "pass unsafe_large=True to override"
        )
    return _h_by_mask(MarginalCache(state), spec.reduced_function(), n, k - 1)


# --- min family -----------------------------------------------------------------


@lru_cache(maxsize=_LOW_BLOCKS_CACHE)
def _low_blocks(mask: int, b: int) -> tuple[int, ...]:
    """Every block of at most b parties inside `mask` that holds its lowest
    party, by block size, then in combinations order.

    Memoized for the process, least recently used first out: the DP and
    the DFS of every min-family evaluation read the same lists, whatever
    the state.  Under qstate.PARTY_CAP a mask has at most 12 parties, and
    _LOW_BLOCKS_CACHE = 4,096 entries is one b's masks on 12 parties.  The
    worst case fills it with the 4,096 longest tuples (down to 128 blocks
    each, from b >= 7 on 12 parties, only under unsafe_large): 33 MB,
    tuples, ints, keys and cache links included (tracemalloc).  Under
    PARTITION_COUNT_CAP it is 13 MB.  A pass of the benchmark's audit
    fills 795 entries, and of its sweep 1,348."""
    low = mask & -mask
    others = [1 << i for i in mask_parties(mask ^ low)]
    return tuple(
        low | sum(extra)
        for size in range(min(b, len(others) + 1))
        for extra in combinations(others, size)
    )


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
    """The witness of the min family over Gamma_b, as (score, restricted
    growth string, block masks): the first partition in RGS order whose
    score lies within WITNESS_TOL * max(1, |V|) of the DP minimum V.

    A DFS adds blocks by their lowest party and drops every prefix whose DP
    bound (score of the prefix sum plus the least completion) is above that
    band.  At a leaf the bound is the partition's own score, its block
    values added in RGS block order, so every leaf reached is in the band:
    no leaf is re-scored, and only the least RGS is kept."""
    least = _least_sums(values, n, b)
    full = (1 << n) - 1
    by_count = {m: _min_family_score(kind, total, m) for m, total in least[full].items()}
    floor = min(by_count.values())
    ceiling = floor + WITNESS_TOL * max(1.0, abs(floor))
    best: Optional[tuple] = None
    blocks: list[int] = []

    def walk(mask: int, total: float, m: int) -> None:
        nonlocal best
        if not mask:
            labels = [0] * n
            for j, block in enumerate(blocks):
                for i in mask_parties(block):
                    labels[i] = j
            rgs = tuple(labels)
            if best is None or rgs < best[1]:
                best = (_min_family_score(kind, total, m), rgs, tuple(blocks))
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
    spec: MeasureSpec, state: PureState, *, unsafe_large: bool = False
) -> MeasureResult:
    """Minimize the per-partition score over all partitions with blocks of
    at most k-1 parties, by the subset DP and bounded DFS of `_near_minimal`.

    The witness is the first partition in restricted-growth-string order
    whose score lies within WITNESS_TOL * max(1, |V|) of the minimum V;
    the value is its score.
    """
    n, b = state.num_parties, spec.k - 1
    values = _block_values(spec, state, unsafe_large)
    best, _, blocks = _near_minimal(spec.kind, values, n, b)
    # the DFS adds blocks by their lowest party, so they are canonical
    witness = Partition._trusted(tuple(mask_parties(block) for block in blocks))
    breakdown = {
        "terms": tuple(zip(witness.blocks, (values[block] for block in blocks))),
        "num_blocks": witness.num_blocks,
    }
    return MeasureResult(value=float(best), witness=witness, breakdown=breakdown)


# --- geometric family ------------------------------------------------------------


@lru_cache(maxsize=64)
def _mask_table(n: int, b: int) -> tuple[np.ndarray, float]:
    """Gamma_b of n parties as a read-only (n, |Gamma_b|) array of block
    masks (partitions.block_masks: column i holds the i-th partition's
    blocks in restricted-growth-string order, then zeros, the empty mask
    whose h is 0.0) and sum_i log m_i."""
    table = block_masks(n, b)
    table.flags.writeable = False
    return table, _log_sum(np.count_nonzero(table, axis=0))


# entries converted to Python numbers at a time by _log_sum
_LOG_CHUNK = 1 << 16


def _log_sum(values: np.ndarray) -> float:
    """sum(map(math.log, values.tolist())), bit for bit on every Python:
    one sum over the same numbers in the same order, but converted a
    chunk at a time, so no list of one Python number per entry is built."""
    chunks = (values[i:i + _LOG_CHUNK].tolist() for i in range(0, values.size, _LOG_CHUNK))
    return sum(map(math.log, chain.from_iterable(chunks)))


def measure_geometric_family(
    spec: MeasureSpec, state: PureState, *, unsafe_large: bool = False
) -> MeasureResult:
    """Geometric-mean family over the same bounded-block partition family.

    value = ( prod_i [sum of block values of partition i] / prod_i m_i
            ) ^ (1 / (2 * family size)),
    computed in log space; any zero partition sum gives exactly 0.  Block
    values are added left to right, so the sums equal a sweep's Python `sum`
    bit for bit where it adds in order (3.11 and older), and to 1e-12 after.
    """
    values = np.array(_block_values(spec, state, unsafe_large))
    table, log_blocks = _mask_table(state.num_parties, spec.k - 1)
    sums = values[table[0]]
    for blocks in table[1:]:  # one block at a time keeps the temporaries small
        sums = sums + values[blocks]
    if sums.min() <= 0.0:
        value = 0.0
    else:
        value = math.exp((_log_sum(sums) - log_blocks) / (2.0 * sums.size))
    return MeasureResult(value=value, witness=None, breakdown={"cardinality": sums.size})


# --- dispatch ---------------------------------------------------------------------


def _check_k(k: int, n: int) -> None:
    if not 2 <= k <= n:
        raise ValueError(f"need 2 <= k <= {n}, got k={k}")


def evaluate_measure(
    spec: MeasureSpec, state: PureState, *, unsafe_large: bool = False
) -> MeasureResult:
    if spec.family == FACTOR:
        return measure_factor_family(spec, state)
    if spec.family == MIN:
        return measure_min_family(spec, state, unsafe_large=unsafe_large)
    return measure_geometric_family(spec, state, unsafe_large=unsafe_large)


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
        parameter = parse_parameter(arg)
    except ValueError:
        raise ValueError(f"cannot parse measure {text!r}") from None
    return MeasureSpec(kind, k, parameter=parameter)
