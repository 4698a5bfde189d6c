"""Finest tensor factorization of a pure state across its parties.

Each of the state's groups (PureState.groups, across which the amplitudes
are a tensor product) is split on its own, by repeatedly taking the
smallest subset of its unassigned parties whose marginal is pure (by
subset size, then lexicographic on the original party indices).  The
purities are qstate.marginal_purity, read by party mask (_mask_purity),
taken on the group's own vector (PureState.group_vectors), so no
remainder state is ever formed, and they are the numbers h's zero rule
reads.  A factor is its parties and a
classification; its own state is pure_restriction(state, f.parties).
The reconstruction fidelity check multiplies the factors' own vectors
(qstate._own_vectors): a block that is a whole group is that group's
vector, with no SVD, and a block cut out of a group is the leading
singular vector of its group vector's split.  As no block crosses a group
(below), the check is taken group by group, against each group's vector,
and never forms the state's full amplitude vector.  Minimality makes every
multi-party factor genuinely entangled: a pure proper sub-marginal would
have been found at a smaller size first.  The producibility is the size
of the largest factor.

This module holds only the factorization.  It keeps no memo of its own:
the purities come off the marginal engine's memo on each GroupVector
(kpem.qstate), shared by every state holding that object.

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
needs at least six parties left in a group, so the first such step of a
group forms the marginal of each remaining pair once, on the group
vector, for its link alone, merging the two parties' component masks as
each link is found; later steps of the group visit fewer parties.  The
scan of three or more parties visits only unions of components and so
finds the same subset as the full scan.  No link crosses a pure subset, so
a component never straddles a found factor.  States whose pairs are
uncorrelated (AME-like factors) get no links and fall back to the full
scan; a generic entangled state collapses to one component and needs no
scan of three or more parties.
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
    _mask_purity,
    _own_vectors,
    _product_vector,
    _split,
)

SINGLE = "single"
GENUINE = "genuinely_entangled"


@dataclass(frozen=True)
class Factor:
    parties: tuple[int, ...]   # global party indices, ascending
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

    Computed afresh on every call, from purities memoized on the group
    vectors.  Factors are reported in ascending order of their first
    party.  The tensor product of the factors' own vectors must reproduce
    the input with fidelity at least 1 - 1e-8, otherwise the tolerance
    story has broken down and a NumericalContractError is raised.
    """
    comp = [1 << p for p in range(state.num_parties)]  # each party's link component

    def is_pure(mask: int) -> bool:
        return _mask_purity(state, mask) >= 1.0 - PURITY_TOL

    blocks: list[tuple[int, ...]] = []
    for left in state.groups:
        linked = False  # links of the group's remaining pairs taken
        while left:
            remaining = mask_parties(left)
            bits = [1 << p for p in remaining]
            # the rest of a group is pure, so a proper pure subset pairs with
            # a pure complement and scanning up to half cannot miss one
            half = len(remaining) // 2
            found = next(filter(is_pure, bits), None) if half else left
            if found is None and half >= 2:
                found = next(filter(is_pure, map(sum, combinations(bits, 2))), None)
            if found is None and half >= 3:
                if not linked:  # later scans of the group visit fewer parties
                    for i, j in combinations(remaining, 2):
                        if _link_distance(state, (i, j)) > LINK_TOL:
                            merged = comp[i] | comp[j]
                            for p in mask_parties(merged):
                                comp[p] = merged
                    linked = True
                found = next(filter(is_pure, _component_unions(remaining, comp, half)), None)
            found = found or left
            blocks.append(mask_parties(found))
            left ^= found

    blocks.sort()
    fid = _reconstruction_fidelity(state, blocks)
    if not fid >= 1.0 - FIDELITY_TOL:
        raise NumericalContractError(
            f"factor reconstruction fidelity {fid} below {1.0 - FIDELITY_TOL}"
        )
    return FactorDecomposition(
        factors=tuple(
            Factor(parties=parties, classification=GENUINE if len(parties) >= 2 else SINGLE)
            for parties in blocks
        ),
        fidelity=fid,
    )


def _link_distance(state: PureState, pair: tuple[int, int]) -> float:
    """||rho_ij - rho_i (x) rho_j||_2 of one pair marginal (i < j), formed
    on the group vector holding both parties; 0.0 across groups."""
    i, j = pair
    for g, gv in zip(state.groups, state.group_vectors()):
        if g >> i & 1 and g >> j & 1:
            parties = mask_parties(g)
            m = _split(gv.tensor(), (parties.index(i), parties.index(j)))
            rho = m @ m.conj().T
            di, dj = (state.layout.dims[p] for p in pair)
            t = rho.reshape(di, dj, di, dj)
            rho_i = t.trace(axis1=1, axis2=3)
            rho_j = t.trace(axis1=0, axis2=2)
            return float(np.linalg.norm(t - rho_i[:, None, :, None] * rho_j[None, :, None, :]))
    return 0.0


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


def _reconstruction_fidelity(state: PureState, blocks: list[tuple[int, ...]]) -> float:
    """|<tensor product of the blocks' own vectors|state>|^2, taken group
    by group: no block crosses a group, so it is the product over the
    groups of |<product of the group's blocks' own vectors|group vector>|^2,
    and the full amplitude vector is never formed."""
    masks = [sum(1 << p for p in parties) for parties in blocks]
    fid = 1.0
    for g, gv in zip(state.groups, state.group_vectors()):
        pieces = [piece for mask in masks if mask & g for piece in _own_vectors(state, mask)]
        rec = _product_vector(
            state.layout.dims, [mask for mask, _ in pieces], [v.vector for _, v in pieces]
        )
        fid *= abs(np.vdot(rec, gv.vector)) ** 2
    return float(fid)


def classify(state: PureState) -> tuple[int, bool]:
    """(producibility, genuinely multipartite entangled) of a pure state."""
    dec = finest_factorization(state)
    return dec.producibility, dec.genuine
