"""Shared test inputs."""

import numpy as np
import pytest

from kpem.audit import random_product_spec
from kpem.partitions import Partition, mask_parties
from kpem.qstate import (
    apply_local_unitary,
    build_state,
    haar_unitary,
    permute_parties,
    pure_restriction,
    regroup,
)


def grouped_states(seed=2024, per_n=3):
    """Seeded audit-style product states on 2 to 7 parties, each followed
    by what permute_parties, regroup, pure_restriction and
    apply_local_unitary make of it, so that every way a state comes by its
    groups is covered.  Returns (name, state) pairs."""
    rng = np.random.default_rng(seed)
    out = []
    for n in range(2, 8):
        for t in range(per_n):
            psi = build_state(random_product_spec(rng, n))
            tag = f"n{n}-{t}"
            out.append((tag, psi))
            out.append((f"{tag}-permuted",
                        permute_parties(psi, tuple(int(p) for p in rng.permutation(n)))))
            out.append((f"{tag}-rotated",
                        apply_local_unitary(psi, n - 1, haar_unitary(2, rng))))
            # a block joining the first and last parties merges their groups
            blocks = [[0, n - 1]] + [[p] for p in range(1, n - 1)]
            out.append((f"{tag}-regrouped", regroup(psi, Partition.of(blocks))))
            if len(psi.groups) > 1:
                rest = pure_restriction(psi, mask_parties(psi.groups[0] ^ ((1 << n) - 1)))
                out.append((f"{tag}-restricted", rest))
    return out


@pytest.fixture(scope="session")
def grouped_family():
    return grouped_states()
