"""Finest tensor factorization of a pure state across its parties.

The decomposition repeatedly takes the smallest party subset of the
not yet assigned parties whose marginal is pure (search by subset size,
then lexicographic on the original party indices); purities are always
taken on the input state and memoized per subset, so no remainder state
is ever formed.  Each factor state is then read off the input by
qstate.pure_restriction; a state with no split is its own single factor.
Minimality makes every multi-party factor genuinely entangled: a pure
proper sub-marginal would have been found at a smaller size first.  The
producibility of the state is the size of its largest factor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .partitions import Partition
from .qstate import (
    FIDELITY_TOL,
    NumericalContractError,
    PureState,
    PURITY_TOL,
    marginal_purity,
    pure_restriction,
)

SINGLE = "single"
GENUINE = "genuinely_entangled"


@dataclass(frozen=True)
class Factor:
    parties: tuple[int, ...]   # global party indices, ascending
    state: PureState
    classification: str

    @property
    def size(self) -> int:
        return len(self.parties)


@dataclass(frozen=True)
class FactorDecomposition:
    factors: tuple[Factor, ...]
    fidelity: float            # |<reconstruction|input>|^2

    @property
    def producibility(self) -> int:
        return max(f.size for f in self.factors)

    @property
    def genuine(self) -> bool:
        return len(self.factors) == 1 and self.factors[0].classification == GENUINE

    def block_partition(self) -> Partition:
        return Partition.of([f.parties for f in self.factors])


def finest_factorization(state: PureState) -> FactorDecomposition:
    """Decompose into the finest tuple of pure tensor factors.

    Factors are reported in ascending order of their first party.  The
    tensor product of the factors must reproduce the input with fidelity
    at least 1 - 1e-8, otherwise the tolerance story has broken down and
    a NumericalContractError is raised.
    """
    pure: dict[tuple[int, ...], bool] = {}

    def is_pure(subset: tuple[int, ...]) -> bool:
        got = pure.get(subset)
        if got is None:
            got = pure[subset] = marginal_purity(state, subset) >= 1.0 - PURITY_TOL
        return got

    blocks: list[tuple[int, ...]] = []
    remaining = tuple(range(state.num_parties))
    while remaining:
        # a proper pure subset pairs with a pure complement, so scanning up
        # to half the parties cannot miss one
        found = next(
            (sub for size in range(1, len(remaining) // 2 + 1)
             for sub in combinations(remaining, size) if is_pure(sub)),
            remaining,
        )
        blocks.append(found)
        remaining = tuple(p for p in remaining if p not in found)

    if len(blocks) == 1:
        factors = [(blocks[0], state)]
    else:
        factors = []
        for parties in sorted(blocks):
            fs = pure_restriction(state, parties)
            if fs is None:
                raise NumericalContractError(
                    f"factor marginal on parties {parties} is not pure"
                )
            factors.append((parties, fs))
    fid = _reconstruction_fidelity(state, factors)
    if not fid >= 1.0 - FIDELITY_TOL:
        raise NumericalContractError(
            f"factor reconstruction fidelity {fid} below {1.0 - FIDELITY_TOL}"
        )
    return FactorDecomposition(
        factors=tuple(
            Factor(
                parties=parties,
                state=fs,
                classification=GENUINE if len(parties) >= 2 else SINGLE,
            )
            for parties, fs in factors
        ),
        fidelity=fid,
    )


def _reconstruction_fidelity(
    state: PureState, factors: list[tuple[tuple[int, ...], PureState]]
) -> float:
    order: list[int] = []
    rec = np.ones(1, dtype=np.complex128)
    for parties, fs in factors:
        rec = np.multiply.outer(rec, fs.amplitudes.reshape(fs.layout.dims))
        order.extend(parties)
    rec = rec.reshape([1] + [d for _, fs in factors for d in fs.layout.dims])[0]
    inv = np.argsort(order)
    rec = rec.transpose(inv).reshape(-1)
    return float(abs(np.vdot(rec, state.amplitudes)) ** 2)


def classify(state: PureState) -> tuple[int, bool]:
    """(producibility, genuinely multipartite entangled) of a pure state."""
    dec = finest_factorization(state)
    return dec.producibility, dec.genuine
