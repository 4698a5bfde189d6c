"""Property audit of the measure postulates on product-form state families.

Checked postulates, each as a margin with a fixed orientation (positive
margin above the threshold = violation):

* symmetry          |E(psi) - E(permuted psi)|
* additivity        |E(psi (x) phi) - E(psi) - E(phi)|
* k_monotone        E at k  minus  E at k-1
* coarsening_monotone_a
                    E(state after discarding parties) - E(full state)
* tight_coarsening_monotone_b_k2 / _k3plus
                    E(state regrouped by a legal merge) - E(full state)
* partial_trace_monotone_c
                    E(regrouped, parties dropped inside blocks) - E(regrouped)
* ordering_chain    max(min-family - factor-sum, factor-sum - bipartite-sum)

Exact evaluation of a coarsened or reduced system needs the remaining
state to be pure, so the generator draws tensor products of explicit
factors and only discards party sets whose complement marginal stays
pure; anything else is skipped and counted, never approximated.  Merge
coarsenings never need a skip: the regrouped state is always pure.  All
randomness is confined to instance generation; evaluating an instance is
deterministic, which is what makes every reported witness replayable.

Some verdicts the audit is expected to produce contradict the claims the
reference table makes about these measures; those cells are documented in
DEVIATION_NOTES rather than papered over.  See the module-level
EXPECTED_MATRIX for the full verdict profile the default suite asserts.
"""

from __future__ import annotations

import math
import string
from dataclasses import dataclass, field, fields, replace
from functools import partial
from itertools import chain
from numbers import Integral, Real
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .measures import FACTOR, GEOMETRIC, MarginalCache, MeasureSpec, evaluate_measure
from .parallel import fork_map
from .partitions import Partition
from .qstate import (
    AmplitudesFactor,
    GhzFactor,
    MaxEntFactor,
    StateSpec,
    SystemLayout,
    WFactor,
    _json_int,
    build_state,
    canonical_phase,
    haar_vector,
    permute_parties,
    pure_restriction,
    regroup,
    spec_from_dict,
    spec_to_dict,
)
from .redfun import CONCURRENCE, ENTROPY, ReducedFunctionSpec

VIOLATION_TOL = 1e-7   # margins above this count as violations
REPLAY_TOL = 1e-9      # witness re-evaluation must reproduce the margin this tightly
ATTEMPT_FACTOR = 8     # a check draws at most this many instances per target one

# each postulate, with the transformation fields its replay reads, its
# number of states and its least k
_REPLAY_NEEDS = {
    "symmetry": (("perm",), 1, 2),
    "additivity": ((), 2, 2),
    "k_monotone": ((), 1, 3),
    "coarsening_monotone_a": (("discard",), 1, 2),
    "tight_coarsening_monotone_b_k2": (("groups",), 1, 2),
    "tight_coarsening_monotone_b_k3plus": (("groups",), 1, 2),
    "partial_trace_monotone_c": (("base_blocks", "inner_drop"), 1, 2),
    "ordering_chain": ((), 1, 2),
}
AXIOMS = tuple(_REPLAY_NEEDS)

PASS, VIOLATED, REPORT = "pass", "violated", "report"


# The audited measures, pinned at k = 2; a check evaluates replace(variant,
# k=...).  A cell's random stream is seeded with [master_seed, index of its
# axiom in AXIOMS, index of its variant in this tuple], so a cell draws the
# same instances whichever config runs it.
DEFAULT_VARIANTS = (
    MeasureSpec("E_k", 2, h=ENTROPY),
    MeasureSpec("E_k", 2, h=CONCURRENCE),
    MeasureSpec("calE_k", 2, h=ENTROPY),
    MeasureSpec("calE_k", 2, h=CONCURRENCE),
    MeasureSpec("Eprime_k", 2, h=ENTROPY),
    MeasureSpec("Eprime_k", 2, h=CONCURRENCE),
    MeasureSpec("C_k", 2),
    MeasureSpec("Cq_k", 2, parameter=2.0),
    MeasureSpec("Calpha_k", 2, parameter=0.5),
    MeasureSpec("CGq_k", 2, parameter=2.0),
    MeasureSpec("CGalpha_k", 2, parameter=0.5),
)


def _verdict_group(variant: MeasureSpec) -> str:
    """Expected-matrix column group, read off the measure-kind table."""
    if variant.family == FACTOR:
        return "base"
    if variant.family == GEOMETRIC:
        return "geo"
    return "eprime" if variant.kind == "Eprime_k" else "mean"


def _expected_row(**cells: str) -> dict[str, str]:
    return {v.name: cells[_verdict_group(v)]
            for v in DEFAULT_VARIANTS if _verdict_group(v) in cells}


# Verdict profile the default suite is asserted against.  Cells where this
# profile deviates from the reference-table claims are in DEVIATION_NOTES.
EXPECTED_MATRIX: dict[str, dict[str, str]] = {
    "symmetry": _expected_row(base=PASS, eprime=PASS, mean=PASS, geo=PASS),
    "additivity": {
        **_expected_row(base=PASS, mean=VIOLATED, geo=VIOLATED),
        "Eprime[entropy]": PASS,
        "Eprime[concurrence]": VIOLATED,
    },
    "k_monotone": _expected_row(base=PASS, eprime=PASS, mean=PASS, geo=VIOLATED),
    "coarsening_monotone_a": _expected_row(base=PASS, eprime=PASS, mean=VIOLATED, geo=VIOLATED),
    "tight_coarsening_monotone_b_k2": _expected_row(base=PASS, eprime=PASS, mean=VIOLATED, geo=VIOLATED),
    "tight_coarsening_monotone_b_k3plus": _expected_row(base=PASS, eprime=VIOLATED, mean=REPORT, geo=REPORT),
    "partial_trace_monotone_c": _expected_row(base=PASS, eprime=PASS, mean=PASS, geo=PASS),
    "ordering_chain": _expected_row(eprime=PASS),
}

DEVIATION_NOTES = {
    ("additivity", "Eprime[concurrence]"): (
        "reference table claims additivity for any reduced function; blocks "
        "straddling the two factors can undercut the factor-aligned minimum "
        "(two 3-qubit GHZ factors at k=3 give 1.5*sqrt(3/2) < 2)"
    ),
    ("k_monotone", "C"): (
        "reference table claims k-monotonicity can fail; it cannot: the "
        "partition family only grows with k and the score formula is "
        "unchanged, so the minimum is nonincreasing"
    ),
    ("k_monotone", "Cq(2)"): "same nested-family argument as for C",
    ("k_monotone", "Calpha(0.5)"): "same nested-family argument as for C",
}


def expected_verdict(axiom: str, variant_name: str) -> Optional[str]:
    """None = check not applicable to this variant."""
    return EXPECTED_MATRIX.get(axiom, {}).get(variant_name)


# --- replayable instances -------------------------------------------------------


@dataclass(frozen=True)
class AxiomInstance:
    """Everything needed to re-evaluate one check deterministically.

    states carries one StateSpec (two for additivity) with explicit
    factors; the remaining fields are the transformation under test,
    expressed over party labels so the record survives serialization.
    """

    axiom: str
    k: int
    states: tuple[StateSpec, ...]
    perm: Optional[tuple[int, ...]] = None
    discard: Optional[tuple[str, ...]] = None
    groups: Optional[tuple[tuple[str, ...], ...]] = None
    base_blocks: Optional[tuple[tuple[str, ...], ...]] = None
    inner_drop: Optional[tuple[str, ...]] = None
    note: str = ""

    def to_dict(self) -> dict:
        out: dict = {
            "axiom": self.axiom,
            "k": self.k,
            "states": [spec_to_dict(s) for s in self.states],
        }
        for key in ("perm", "discard", "groups", "base_blocks", "inner_drop"):
            val = getattr(self, key)
            if val is not None:
                out[key] = [list(v) if isinstance(v, tuple) else v for v in val]
        if self.note:
            out["note"] = self.note
        return out

    @classmethod
    def from_dict(cls, obj) -> "AxiomInstance":
        """Parse an instance record; types are checked, not coerced."""
        if not isinstance(obj, dict):
            raise ValueError(f"axiom instance must be a JSON object, got {type(obj).__name__}")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"axiom instance: unknown field(s) {sorted(unknown)}")
        if obj.get("axiom") not in AXIOMS:
            raise ValueError(f"axiom instance: unknown axiom {obj.get('axiom')!r}")
        states, note = obj.get("states"), obj.get("note", "")
        if not isinstance(states, list) or not states or not isinstance(note, str):
            raise ValueError("axiom instance: 'states' takes a nonempty array, 'note' a string")

        def tup(key, kind, nested=False):
            # a list of `kind` (a list of such lists if nested); booleans are not ints
            val = obj.get(key)
            if val is None:
                return None
            rows = val if nested else [val]
            if not isinstance(val, list) or not all(isinstance(r, list) and all(
                    isinstance(x, kind) and not isinstance(x, bool) for x in r) for r in rows):
                raise ValueError(f"axiom instance: {key!r} has the wrong type: {val!r}")
            return tuple(map(tuple, val)) if nested else tuple(val)

        inst = cls(
            axiom=obj["axiom"],
            k=_json_int(obj.get("k"), "k", "axiom instance"),
            states=tuple(spec_from_dict(s) for s in states),
            perm=tup("perm", int),
            discard=tup("discard", str),
            groups=tup("groups", str, nested=True),
            base_blocks=tup("base_blocks", str, nested=True),
            inner_drop=tup("inner_drop", str),
            note=note,
        )
        needs, count, least_k = _REPLAY_NEEDS[inst.axiom]
        if len(inst.states) != count or inst.k < least_k or any(
                getattr(inst, key) is None for key in needs):
            raise ValueError(f"axiom instance: {inst.axiom} replays {count} state(s) "
                             f"at k >= {least_k} and needs the field(s) {list(needs)}")
        named = chain(inst.discard or (), inst.inner_drop or (),
                      *(inst.groups or ()), *(inst.base_blocks or ()))
        strangers = sorted(set(named) - set(inst.states[0].labels))
        if strangers:
            raise ValueError(f"axiom instance: {strangers} are not parties of its state")
        return inst


@dataclass(frozen=True)
class InstanceOutcome:
    margin: Optional[float]
    skipped: bool = False
    skip_reason: str = ""
    values: tuple[tuple[str, float], ...] = ()


_MIXED_REST = InstanceOutcome(None, skipped=True, skip_reason="remaining marginal is mixed")

def _label_indices(layout: SystemLayout, labels: Sequence[str]) -> list[int]:
    return [layout.index_of(lab) for lab in labels]


def evaluate_instance(variant: MeasureSpec, inst: AxiomInstance) -> InstanceOutcome:
    """Deterministic margin evaluation; the single path for suite and replay."""
    k = inst.k
    spec = replace(variant, k=k)
    psi = build_state(inst.states[0])
    if inst.axiom == "symmetry":
        a = evaluate_measure(spec, psi).value
        b = evaluate_measure(spec, permute_parties(psi, inst.perm)).value
        return InstanceOutcome(abs(a - b), values=(("value", a), ("permuted", b)))

    if inst.axiom == "additivity":
        left, right = inst.states
        joint = StateSpec(left.factors + right.factors)
        vj = evaluate_measure(spec, build_state(joint)).value
        vl = evaluate_measure(spec, psi).value
        vr = evaluate_measure(spec, build_state(right)).value
        return InstanceOutcome(
            abs(vj - vl - vr),
            values=(("joint", vj), ("left", vl), ("right", vr)),
        )

    if inst.axiom == "k_monotone":
        hi = evaluate_measure(spec, psi).value
        lo = evaluate_measure(replace(variant, k=k - 1), psi).value
        return InstanceOutcome(hi - lo, values=(("at_k", hi), ("at_k_minus_1", lo)))

    if inst.axiom == "coarsening_monotone_a":
        drop = set(_label_indices(psi.layout, inst.discard))
        keep = [i for i in range(psi.num_parties) if i not in drop]
        rest = pure_restriction(psi, keep)
        if rest is None:
            return _MIXED_REST
        full = evaluate_measure(spec, psi).value
        red = evaluate_measure(spec, rest).value
        return InstanceOutcome(red - full, values=(("full", full), ("reduced", red)))

    if inst.axiom in ("tight_coarsening_monotone_b_k2", "tight_coarsening_monotone_b_k3plus"):
        blocks = [_label_indices(psi.layout, g) for g in inst.groups]
        coarse = regroup(psi, Partition.of(blocks))
        full = evaluate_measure(spec, psi).value
        merged = evaluate_measure(spec, coarse).value
        return InstanceOutcome(merged - full, values=(("full", full), ("merged", merged)))

    if inst.axiom == "partial_trace_monotone_c":
        drop = set(inst.inner_drop)
        base = [_label_indices(psi.layout, g) for g in inst.base_blocks]
        lhs_state = regroup(psi, Partition.of(base))
        keep_labels = [lab for lab in psi.layout.labels if lab not in drop]
        keep = _label_indices(psi.layout, keep_labels)
        rest = pure_restriction(psi, keep)
        if rest is None:
            return _MIXED_REST
        shrunk = []
        for g in inst.base_blocks:
            kept = [lab for lab in g if lab not in drop]
            if not kept:
                raise ValueError("inner discard may not empty a block")
            shrunk.append(_label_indices(rest.layout, kept))
        rhs_state = regroup(rest, Partition.of(shrunk))
        lhs = evaluate_measure(spec, lhs_state).value
        rhs = evaluate_measure(spec, rhs_state).value
        return InstanceOutcome(rhs - lhs, values=(("regrouped", lhs), ("dropped", rhs)))

    if inst.axiom == "ordering_chain":
        prime = evaluate_measure(MeasureSpec("Eprime_k", k, h=variant.h), psi).value
        fact = evaluate_measure(MeasureSpec("E_k", k, h=variant.h), psi).value
        bipart = evaluate_measure(MeasureSpec("calE_k", k, h=variant.h), psi).value
        return InstanceOutcome(
            max(prime - fact, fact - bipart),
            values=(("min_family", prime), ("factor_sum", fact), ("bipartite_sum", bipart)),
        )

    raise ValueError(f"unknown check {inst.axiom!r}")


# --- instance generation ----------------------------------------------------------


_ALPHABET = string.ascii_uppercase


def _labels(n: int, offset: int = 0) -> tuple[str, ...]:
    return tuple(_ALPHABET[offset + i] for i in range(n))


def _haar_factor(rng: np.random.Generator, labels: tuple[str, ...]) -> AmplitudesFactor:
    # a Haar state is a product with probability zero: one draw is entangled
    amps = canonical_phase(haar_vector(2 ** len(labels), rng))
    return AmplitudesFactor(labels, (2,) * len(labels), tuple(amps.tolist()))


def _random_factor(rng: np.random.Generator, labels: tuple[str, ...]):
    size = len(labels)
    if size == 1:  # no roll for a single party: the seeded streams depend on it
        return _haar_factor(rng, labels)
    roll = rng.random()
    if size == 2:
        return MaxEntFactor(labels) if roll < 0.35 else _haar_factor(rng, labels)
    if roll < 0.3:
        return GhzFactor(labels)
    if roll < 0.55:
        return WFactor(labels)
    return _haar_factor(rng, labels)


def _random_sizes(rng: np.random.Generator, n: int, max_factor: int) -> list[int]:
    sizes: list[int] = []
    left = n
    while left:
        s = int(rng.integers(1, min(max_factor, left) + 1))
        sizes.append(s)
        left -= s
    if len(sizes) > 1 and all(s == 1 for s in sizes):
        sizes = [2] + sizes[2:]  # keep at least one entangled factor around
    return sizes


def random_product_spec(
    rng: np.random.Generator, n: int, max_factor: int = 4, offset: int = 0
) -> StateSpec:
    """Tensor product of explicit factors on n parties; the audit fuel."""
    sizes = _random_sizes(rng, n, max_factor)
    factors = []
    at = offset
    for s in sizes:
        factors.append(_random_factor(rng, _labels(s, at)))
        at += s
    return StateSpec(tuple(factors))


def _factor_label_sets(spec: StateSpec) -> list[tuple[str, ...]]:
    return [f.labels for f in spec.factors]


def _rand_int(rng: np.random.Generator, lo: int, hi: int) -> int:
    return int(rng.integers(lo, hi + 1))


def _instances_symmetry(rng) -> Iterator[AxiomInstance]:
    while True:
        n = _rand_int(rng, 3, 7)
        spec = random_product_spec(rng, n)
        k = _rand_int(rng, 2, n)
        perm = tuple(int(i) for i in rng.permutation(n))
        yield AxiomInstance("symmetry", k, (spec,), perm=perm)


def _instances_additivity(rng) -> Iterator[AxiomInstance]:
    while True:
        n1 = _rand_int(rng, 2, 4)
        n2 = _rand_int(rng, 2, 4)
        left = random_product_spec(rng, n1)
        right = random_product_spec(rng, n2, offset=n1)
        k = _rand_int(rng, 2, min(n1, n2))
        yield AxiomInstance("additivity", k, (left, right))


def _instances_k_monotone(rng) -> Iterator[AxiomInstance]:
    while True:
        n = _rand_int(rng, 3, 7)
        spec = random_product_spec(rng, n)
        k = _rand_int(rng, 3, n)
        yield AxiomInstance("k_monotone", k, (spec,))


def _instances_coarsening_a(rng) -> Iterator[AxiomInstance]:
    while True:
        n = _rand_int(rng, 4, 8)
        spec = random_product_spec(rng, n, max_factor=3)
        fsets = _factor_label_sets(spec)
        if len(fsets) < 2:
            continue
        if rng.random() < 0.7:
            # discard whole factors: remaining state provably pure
            how_many = _rand_int(rng, 1, len(fsets) - 1)
            picked = rng.choice(len(fsets), size=how_many, replace=False)
            discard = tuple(chain.from_iterable(fsets[i] for i in sorted(picked)))
        else:
            labels = spec.labels
            how_many = _rand_int(rng, 1, n - 2)
            picked = rng.choice(n, size=how_many, replace=False)
            discard = tuple(labels[i] for i in sorted(picked))
        q = n - len(discard)
        if q < 2:
            continue
        k = _rand_int(rng, 2, min(q, 5))
        yield AxiomInstance("coarsening_monotone_a", k, (spec,), discard=discard)


def _legal_merge_groups(
    rng: np.random.Generator, spec: StateSpec
) -> Optional[tuple[tuple[str, ...], ...]]:
    """A type-b grouping whose blocks are proper sub-blocks of one factor or
    unions of whole factors, so every block marginal is pure or comes from a
    single genuinely entangled factor."""
    groups: list[tuple[str, ...]] = []
    whole: list[tuple[str, ...]] = []
    for f in spec.factors:
        labs = list(f.labels)
        if len(labs) >= 2 and rng.random() < 0.55:
            order = list(rng.permutation(len(labs)))
            cut = _rand_int(rng, 1, len(labs) - 1)
            first = sorted(labs[i] for i in order[:cut])
            second = sorted(labs[i] for i in order[cut:])
            groups.extend([tuple(first), tuple(second)])
        else:
            whole.append(tuple(labs))
    while len(whole) >= 2 and rng.random() < 0.35:
        i = _rand_int(rng, 0, len(whole) - 2)
        a, b = whole.pop(i), whole.pop(i)
        whole.append(tuple(a + b))
    groups.extend(whole)
    n = sum(len(g) for g in groups)
    if len(groups) >= n:  # no real merge happened
        return None
    return tuple(groups)


def _instances_tight_b(axiom: str, rng) -> Iterator[AxiomInstance]:
    k_min = 2 if axiom == "tight_coarsening_monotone_b_k2" else 3
    while True:
        n = _rand_int(rng, max(4, k_min + 1), 7)
        spec = random_product_spec(rng, n, max_factor=4)
        groups = _legal_merge_groups(rng, spec)
        if groups is None or len(groups) < k_min:
            continue
        k = 2 if axiom == "tight_coarsening_monotone_b_k2" else _rand_int(rng, 3, min(len(groups), 5))
        yield AxiomInstance(axiom, k, (spec,), groups=groups)


def _instances_partial_trace_c(rng) -> Iterator[AxiomInstance]:
    while True:
        n = _rand_int(rng, 4, 8)
        spec = random_product_spec(rng, n, max_factor=3)
        fsets = _factor_label_sets(spec)
        labels = list(spec.labels)
        if rng.random() < 0.6 and len(fsets) >= 2:
            # drop one whole factor, tucked inside a larger block: exact path
            fi = _rand_int(rng, 0, len(fsets) - 1)
            drop = list(fsets[fi])
            others = [lab for lab in labels if lab not in drop]
            host = others[_rand_int(rng, 0, len(others) - 1)]
            block = tuple(sorted(drop + [host], key=labels.index))
            rest = [lab for lab in others if lab != host]
        else:
            # random drop inside a random block: usually skipped
            size = _rand_int(rng, 2, max(2, n // 2))
            members = sorted(rng.choice(n, size=size, replace=False))
            block = tuple(labels[i] for i in members)
            drop = [block[i] for i in range(_rand_int(rng, 1, len(block) - 1))]
            rest = [lab for lab in labels if lab not in block]
        blocks: list[tuple[str, ...]] = [block]
        at = 0
        while at < len(rest):
            take = _rand_int(rng, 1, min(3, len(rest) - at))
            blocks.append(tuple(rest[at:at + take]))
            at += take
        p = len(blocks)
        if p < 2 or p >= n:
            continue
        k = _rand_int(rng, 2, min(p, 4))
        yield AxiomInstance(
            "partial_trace_monotone_c", k, (spec,),
            base_blocks=tuple(blocks), inner_drop=tuple(drop),
        )


def _instances_ordering_chain(rng) -> Iterator[AxiomInstance]:
    while True:
        n = _rand_int(rng, 3, 8)
        spec = random_product_spec(rng, n)
        k = _rand_int(rng, 2, n)
        yield AxiomInstance("ordering_chain", k, (spec,))


_RANDOM_STREAMS = {
    "symmetry": _instances_symmetry,
    "additivity": _instances_additivity,
    "k_monotone": _instances_k_monotone,
    "coarsening_monotone_a": _instances_coarsening_a,
    "tight_coarsening_monotone_b_k2": partial(_instances_tight_b, "tight_coarsening_monotone_b_k2"),
    "tight_coarsening_monotone_b_k3plus": partial(_instances_tight_b, "tight_coarsening_monotone_b_k3plus"),
    "partial_trace_monotone_c": _instances_partial_trace_c,
    "ordering_chain": _instances_ordering_chain,
}


# --- seeded witnesses ---------------------------------------------------------------


def _bell(a: str, b: str) -> MaxEntFactor:
    return MaxEntFactor((a, b))


def _zero(label: str) -> AmplitudesFactor:
    return AmplitudesFactor((label,), (2,), (1.0 + 0.0j, 0.0j))


def _weak_pair(a: str, b: str, delta: float) -> AmplitudesFactor:
    """|00> + delta |11>, normalized: barely entangled, h values ~ delta."""
    norm = math.sqrt(1.0 + delta * delta)
    return AmplitudesFactor((a, b), (2, 2),
                            (1.0 / norm + 0.0j, 0.0j, 0.0j, delta / norm + 0.0j))


def cross_braided_factor(labels: tuple[str, ...], eps: float = 0.3) -> AmplitudesFactor:
    """Genuinely entangled 4-qubit factor with maximally mixed singles but
    a strictly less mixed first pair: h(single) > h(first pair) while the
    complements keep h(fourth single) = h(first single).  The two branches
    have disjoint marginal supports, so the single-party states are exactly
    I/2 for any eps in (0, 1)."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must sit strictly between 0 and 1")
    if len(labels) != 4:
        raise ValueError("needs exactly four parties")
    amps = np.zeros(16, dtype=np.complex128)
    pair = math.sqrt(1.0 - eps * eps) / 2.0
    for idx in (0b0000, 0b0011, 0b1100, 0b1111):
        amps[idx] = pair
    for idx in (0b0101, 0b1010):
        amps[idx] = eps / math.sqrt(2.0)
    return AmplitudesFactor(labels, (2, 2, 2, 2), tuple(amps))


def engineered_tight_b_instance() -> AxiomInstance:
    """Merge one inner pair of the braided factor: the bounded-block minimum
    can no longer split that factor into two cheap pairs and jumps up."""
    spec = StateSpec((
        cross_braided_factor(("A", "B", "C", "D")),
        _bell("E", "F"),
        _bell("G", "H"),
        _zero("I"),
    ))
    groups = (("A",), ("B", "C"), ("D",), ("E",), ("F",),
              ("G",), ("H",), ("I",))
    return AxiomInstance("tight_coarsening_monotone_b_k3plus", 3, (spec,), groups=groups,
                         note="seeded: braided-factor merge family")


def tight_b_condition(h: ReducedFunctionSpec) -> tuple[float, float, float, bool]:
    """(h_last_single, h_first_single, h_first_pair, realized) on the braided
    factor; realized = h_last >= h_first > h_pair, the ordering under which
    the merge family above must raise the minimum."""
    psi = build_state(StateSpec((cross_braided_factor(("A", "B", "C", "D")),)))
    cache = MarginalCache(psi)
    h_last = cache.h_value(h, 0b1000)
    h_first = cache.h_value(h, 0b0001)
    h_pair = cache.h_value(h, 0b0011)
    realized = h_last >= h_first - 1e-12 and h_first > h_pair + 1e-9
    return h_last, h_first, h_pair, realized


def seeded_instances(axiom: str, variant: MeasureSpec) -> list[AxiomInstance]:
    """Deterministic counterexample instances, evaluated before any random
    ones so every VIOLATED cell of the expected matrix is reached without
    relying on generator luck."""
    kind, group = variant.kind, _verdict_group(variant)
    out: list[AxiomInstance] = []
    if axiom == "additivity":
        if kind == "C_k":
            out.append(AxiomInstance(
                "additivity", 3,
                (StateSpec((_bell("A", "B"), _zero("C"))),
                 StateSpec((WFactor(("D", "E", "F")),))),
                note="seeded: mean over blocks is not additive",
            ))
        elif group == "mean":
            out.append(AxiomInstance(
                "additivity", 2,
                (StateSpec((_bell("A", "B"),)),
                 StateSpec((_zero("C"), _bell("D", "E")))),
                note="seeded: square root of block mean is not additive",
            ))
        elif group == "geo":
            out.append(AxiomInstance(
                "additivity", 2,
                (StateSpec((_bell("A", "B"),)), StateSpec((_bell("C", "D"),))),
                note="seeded: geometric mean is not additive",
            ))
        elif group == "eprime" and variant.h == CONCURRENCE:
            out.append(AxiomInstance(
                "additivity", 3,
                (StateSpec((GhzFactor(("A", "B", "C")),)),
                 StateSpec((GhzFactor(("D", "E", "F")),))),
                note="seeded: cross-factor pair blocks undercut the sum",
            ))
    elif axiom == "k_monotone" and group == "geo":
        out.append(AxiomInstance(
            "k_monotone", 3,
            (StateSpec((GhzFactor(("A", "B", "C")), _zero("D"))),),
            note="seeded: geometric family grows with k here",
        ))
    elif axiom == "coarsening_monotone_a":
        if group == "mean":
            out.append(AxiomInstance(
                "coarsening_monotone_a", 3,
                (StateSpec((_bell("A", "B"), _zero("C"), GhzFactor(("D", "E", "F")))),),
                discard=("C",),
                note="seeded: dropping a trivial party shrinks the denominator",
            ))
        elif group == "geo":
            out.append(AxiomInstance(
                "coarsening_monotone_a", 2,
                (StateSpec((_bell("A", "B"), _zero("C"), _zero("D"))),),
                discard=("D",),
                note="seeded: dropping a trivial party shrinks the denominator",
            ))
    elif axiom == "tight_coarsening_monotone_b_k2":
        deltas = {"C_k": 0.01, "Cq_k": 0.05, "Calpha_k": 0.02,
                  "CGq_k": 0.05, "CGalpha_k": 0.02}
        if kind in deltas:
            out.append(AxiomInstance(
                "tight_coarsening_monotone_b_k2", 2,
                (StateSpec((_weak_pair("A", "B", deltas[kind]), _bell("C", "D"))),),
                groups=(("A", "B"), ("C",), ("D",)),
                note="seeded: hiding a weak pair inside one block",
            ))
    elif axiom == "tight_coarsening_monotone_b_k3plus" and group == "eprime":
        out.append(engineered_tight_b_instance())
    elif axiom == "partial_trace_monotone_c":
        out.append(AxiomInstance(
            "partial_trace_monotone_c", 2,
            (StateSpec((_bell("A", "B"), GhzFactor(("C", "D", "E")), _zero("F"))),),
            base_blocks=(("A", "B"), ("C", "D", "E", "F")),
            inner_drop=("F",),
            note="seeded: trivial party dropped inside a block",
        ))
    return out


# --- checks and the suite ------------------------------------------------------------


@dataclass
class AxiomCheck:
    axiom: str
    variant: str
    verdict: str
    worst_margin: float
    witness: Optional[AxiomInstance]
    evaluated: int
    skipped: int
    violations: int
    notes: str = ""
    records: list = field(default_factory=list)


def check_axiom(
    axiom: str,
    variant: MeasureSpec,
    instances: Iterable[AxiomInstance],
    target: int,
    threshold: float = VIOLATION_TOL,
) -> AxiomCheck:
    """Evaluate instances until `target` non-skipped ones are in, the
    iterable ends or ATTEMPT_FACTOR * target were drawn; worst margin wins
    the witness slot."""
    name = variant.name  # one string shared by every record
    evaluated = skipped = violations = 0
    worst = -math.inf
    witness: Optional[AxiomInstance] = None
    records: list = []
    for index, inst in enumerate(instances):
        if evaluated >= target or index >= ATTEMPT_FACTOR * target:
            break
        out = evaluate_instance(variant, inst)
        rec = {
            "axiom": axiom,
            "variant": name,
            "index": index,
            "k": inst.k,
            "skipped": out.skipped,
        }
        if out.skipped:
            skipped += 1
            rec["skip_reason"] = out.skip_reason
            records.append(rec)
            continue
        evaluated += 1
        violation = out.margin > threshold
        violations += violation
        rec.update(margin=out.margin, violation=violation,
                   values=dict(out.values))
        if inst.note:
            rec["note"] = inst.note
        if violation or out.margin > worst:
            # keep full replay data for every violation and each new worst
            rec["instance"] = inst.to_dict()
        if out.margin > worst:
            worst = out.margin
            witness = inst
        records.append(rec)
    return AxiomCheck(
        axiom=axiom,
        variant=name,
        verdict=VIOLATED if violations else PASS,
        worst_margin=worst,
        witness=witness,
        evaluated=evaluated,
        skipped=skipped,
        violations=violations,
        records=records,
    )


@dataclass(frozen=True)
class AuditConfig:
    master_seed: int = 20240801
    instances_per_check: int = 75
    variants: tuple[MeasureSpec, ...] = DEFAULT_VARIANTS
    axioms: tuple[str, ...] = AXIOMS
    threshold: float = VIOLATION_TOL

    def __post_init__(self) -> None:
        for key in ("master_seed", "instances_per_check"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{key} takes an integer, got {value!r}")
        if isinstance(self.threshold, bool) or not isinstance(self.threshold, Real):
            raise ValueError(f"threshold takes a number, got {self.threshold!r}")
        if self.instances_per_check < 1:
            raise ValueError(f"instances_per_check must be >= 1, got {self.instances_per_check}")
        if not isinstance(self.threshold, Integral) and not math.isfinite(self.threshold):
            raise ValueError(f"threshold must be finite, got {self.threshold}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        known = {"axioms": AXIOMS, "variants": [v.name for v in DEFAULT_VARIANTS]}
        for key, names in (("axioms", self.axioms), ("variants", [v.name for v in self.variants])):
            if len(set(names)) < len(names):
                raise ValueError(f"{key} name a cell more than once: {list(names)}")
            # the suite runs only cells with an expected verdict, so any
            # other name would be dropped without a word
            unknown = [name for name in names if name not in known[key]]
            if unknown:
                raise ValueError(f"{key} {unknown} are not among {list(known[key])}")

    @classmethod
    def from_dict(cls, obj) -> "AuditConfig":
        """Parse an audit config document: a JSON object of AuditConfig
        fields, naming axioms and variants; the constructor checks the types,
        and coerces none."""
        if not isinstance(obj, dict):
            raise ValueError(f"audit config must be a JSON object, got {type(obj).__name__}")
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown audit config fields: {sorted(unknown)}")
        kwargs = {key: obj[key] for key in ("master_seed", "instances_per_check", "threshold")
                  if key in obj}
        if "axioms" in obj:
            kwargs["axioms"] = _pick("axioms", obj["axioms"], {a: a for a in AXIOMS})
        if "variants" in obj:
            kwargs["variants"] = _pick("variants", obj["variants"],
                                       {v.name: v for v in DEFAULT_VARIANTS})
        return cls(**kwargs)


def _pick(key: str, names, known: dict) -> tuple:
    if not isinstance(names, list) or not all(isinstance(x, str) and x in known for x in names):
        raise ValueError(f"{key} takes a list of names from {list(known)}, got {names!r}")
    return tuple(known[name] for name in names)


@dataclass
class AuditReport:
    config: AuditConfig
    checks: list[AxiomCheck]

    def mismatches(self) -> list[tuple[str, str, str, str]]:
        """(axiom, variant, expected, observed) for every asserted cell
        whose verdict came out wrong."""
        out = []
        for c in self.checks:
            want = expected_verdict(c.axiom, c.variant)
            if want in (PASS, VIOLATED) and c.verdict != want:
                out.append((c.axiom, c.variant, want, c.verdict))
        return out

    def summary_table(self) -> str:
        head = (f"{'check':<36} {'measure':<19} {'verdict':<9} "
                f"{'expected':<9} {'worst margin':>13} {'eval':>5} {'skip':>5} {'viol':>5}")
        lines = [head, "-" * len(head)]
        flagged = {(axiom, variant) for axiom, variant, _, _ in self.mismatches()}
        for c in self.checks:
            want = expected_verdict(c.axiom, c.variant) or "-"
            flag = " !!" if (c.axiom, c.variant) in flagged else ""
            dev = " (documented deviation)" if (c.axiom, c.variant) in DEVIATION_NOTES else ""
            lines.append(
                f"{c.axiom:<36} {c.variant:<19} {c.verdict:<9} {want:<9} "
                f"{c.worst_margin:>13.3e} {c.evaluated:>5} {c.skipped:>5} "
                f"{c.violations:>5}{flag}{dev}"
            )
            if c.notes:
                lines.append(f"{'':<36}   {c.notes}")
        return "\n".join(lines)

    def records(self) -> Iterator[dict]:
        for c in self.checks:
            yield from c.records


def _run_cell(config: AuditConfig, axiom: str, variant: MeasureSpec) -> AxiomCheck:
    """One (postulate, measure) cell from its own seeded stream; it reads no
    other cell's work, so cells may run in any process and any order."""
    ai, vi = AXIOMS.index(axiom), [v.name for v in DEFAULT_VARIANTS].index(variant.name)
    rng = np.random.default_rng([config.master_seed, ai, vi])
    stream = chain(seeded_instances(axiom, variant), _RANDOM_STREAMS[axiom](rng))
    check = check_axiom(
        axiom, variant, stream,
        target=config.instances_per_check,
        threshold=config.threshold,
    )
    if axiom == "tight_coarsening_monotone_b_k3plus" and variant.kind == "Eprime_k":
        h_last, h_first, h_pair, ok = tight_b_condition(variant.h)
        check.notes = (
            "merge-family ordering h(last single) >= h(first single) > "
            f"h(first pair): {h_last:.6f} >= {h_first:.6f} > {h_pair:.6f} "
            f"-> {'realized' if ok else 'NOT realized'}"
        )
    return check


def run_suite(config: AuditConfig = AuditConfig()) -> AuditReport:
    """The full matrix; deterministic given the config.

    Every cell is `_run_cell` on its own stream, run through
    parallel.fork_map: with p CPUs in the process's affinity (at most the
    number of cells) and p >= 2, this process runs every p-th cell, from
    the first, while p - 1 forked workers run the others; with p < 2 it
    runs every cell, one after another.  A worker's measure batches run in
    the worker, with no further fork.  The checks come back in cell order,
    so the report does not depend on the number of CPUs.  No worker
    outlives the call, and a cell's exception is raised here with its own
    type.
    """
    cells = [(config, axiom, variant) for axiom in config.axioms for variant in config.variants
             if expected_verdict(axiom, variant.name) is not None]
    return AuditReport(config=config, checks=fork_map(_run_cell, cells))
