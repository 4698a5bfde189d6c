"""Finest tensor factorization of a pure state across its parties.

Each of the state's groups (PureState.groups, across which the amplitudes
are a tensor product) is split on its own, by repeatedly taking the
smallest subset of its unassigned parties whose marginal is pure (by
subset size, then lexicographic on the original party indices); purities
are always taken on the input state and memoized by party bitmask (bit i
is party i), so no remainder state is ever formed.  Each factor state is
then read off the input by qstate.pure_restriction; a state with no split
is its own single factor.  Minimality makes every multi-party factor
genuinely entangled: a pure proper sub-marginal would have been found at a
smaller size first.  The producibility is the size of the largest factor.

Scanning up to half of a group's remaining parties is enough: a group's
marginal is pure and peeling a pure subset off it leaves a pure rest, so a
pure proper subset of the remaining parties pairs with a pure complement
in the group.  A lone remaining party is a factor, with no purity taken.
No finest factor crosses a group, as the finest factorization refines
every product split, so the blocks are those of a whole-state scan.

Subsets that split a clearly correlated pair are never scanned.  If a
subset S holding party i but not party j had purity >= 1 - eps (eps =
PURITY_TOL), its largest Schmidt weight would be >= 1 - eps, so the state
would lie within trace distance sqrt(eps) of a product across S|S^c, and
partial traces contract that to

    ||rho_ij - rho_i (x) rho_j||_2 <= ||rho_ij - rho_i (x) rho_j||_1 <= 6 sqrt(eps).

A pair above LINK_TOL (10x that bound) therefore lies inside one factor,
and every pure subset is a union of the components of the graph of such
links.  Links matter only once a search step goes past pairs, which
needs at least six parties left in a group, so the pair step of such a
search forms each pair's marginal once and reads both its purity and its
link from it, merging the two parties' component masks as each link is
found.  If no pair is pure, the scan of three or more parties visits only
unions of components and so finds the same subset as the full scan.  No
link crosses a pure subset, so a component never straddles a found
factor.  States whose pairs are uncorrelated (AME-like factors) get no
links and fall back to the full scan; a generic entangled state collapses
to one component and needs no scan of three or more parties.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .partitions import Partition, mask_parties
from .qstate import (
    FIDELITY_TOL,
    LINK_TOL,
    NumericalContractError,
    PureState,
    PURITY_TOL,
    _split_matrix,
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
    pure: dict[int, bool] = {}
    comp = [1 << p for p in range(state.num_parties)]  # each party's link component

    def is_pure(mask: int) -> bool:
        got = pure.get(mask)
        if got is None:
            got = pure[mask] = marginal_purity(state, mask_parties(mask)) >= 1.0 - PURITY_TOL
        return got

    def pair_is_pure(mask: int) -> bool:
        got = pure.get(mask)
        if got is None:
            i, j = mask_parties(mask)
            purity, distance = _pair_marginal(state, (i, j))
            got = pure[mask] = purity >= 1.0 - PURITY_TOL
            if distance > LINK_TOL and comp[i] != comp[j]:
                merged = comp[i] | comp[j]
                for p in mask_parties(merged):
                    comp[p] = merged
        return got

    blocks: list[tuple[int, ...]] = []
    for left in state.groups:
        while left:
            remaining = mask_parties(left)
            bits = [1 << p for p in remaining]
            # the rest of a group is pure, so a proper pure subset pairs with
            # a pure complement and scanning up to half cannot miss one
            half = len(remaining) // 2
            found = next(filter(is_pure, bits), None) if half else left
            if found is None and half >= 2:
                test = pair_is_pure if half >= 3 else is_pure
                found = next(filter(test, map(sum, combinations(bits, 2))), None)
            if found is None and half >= 3:
                # every remaining pair has its link now
                found = next(filter(is_pure, _component_unions(remaining, comp, half)), None)
            found = found or left
            blocks.append(mask_parties(found))
            left ^= found

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


def _pair_marginal(state: PureState, pair: tuple[int, int]) -> tuple[float, float]:
    """(purity, ||rho_ij - rho_i (x) rho_j||_2) from one pair marginal.

    The purity is computed exactly as qstate.marginal_purity computes it,
    so the pure/mixed decision does not depend on which route took it.
    """
    m = _split_matrix(state, pair)
    rho = m @ m.conj().T
    if m.shape[0] > m.shape[1]:
        purity = marginal_purity(state, pair)
    else:
        purity = float(np.real(np.sum(rho * rho.conj())))
    di, dj = (state.layout.dims[p] for p in pair)
    t = rho.reshape(di, dj, di, dj)
    rho_i = t.trace(axis1=1, axis2=3)
    rho_j = t.trace(axis1=0, axis2=2)
    return purity, float(np.linalg.norm(t - rho_i[:, None, :, None] * rho_j[None, :, None, :]))


def _component_unions(remaining: tuple[int, ...], comp: list[int], half: int):
    """Masks of the subsets of 3 to `half` of the `remaining` parties that
    are unions of whole link components (`comp[p]` is the mask of party p's
    component), in size-then-lex order."""
    for size in range(3, half + 1):
        for sub in combinations(remaining, size):
            union = own = 0
            for p in sub:
                union |= comp[p]
                own |= 1 << p
            if union == own:
                yield own


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
