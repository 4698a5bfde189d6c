"""Shared test inputs."""

import os

import numpy as np
import pytest

from kpem import qstate
from kpem.audit import random_product_spec
from kpem.partitions import Partition, mask_parties
from kpem.qstate import build_state, permute_parties, pure_restriction, regroup

from oracle import apply_local_unitary, haar_unitary, reduced_density, spectrum

# eigvalsh puts the zero eigenvalues of a density matrix near +-1e-16, which
# alpha_family raises to a small power (1e-16 ** 0.25 = 1e-4), so the oracle
# reads eigenvalues below this as zeros; no test state has a nonzero
# Schmidt weight anywhere near it
ORACLE_FLOOR = 1e-13


def density_spectrum(state, parties):
    """Independent oracle for a marginal spectrum: eigvalsh of the
    partial trace (spectrum(reduced_density(...))), taken on the whole
    amplitude vector, with eigenvalues below ORACLE_FLOOR set to 0."""
    lam = spectrum(reduced_density(state, parties))
    return np.where(lam > ORACLE_FLOOR, lam, 0.0)


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


@pytest.fixture()
def svd_shapes(monkeypatch):
    """The matrix shape of every np.linalg.svd call from now on."""
    shapes = []
    original = np.linalg.svd

    def counting(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return shapes


@pytest.fixture()
def cold_named_groups(monkeypatch):
    """No named factor's GroupVector is shared with earlier tests."""
    monkeypatch.setattr(qstate, "_NAMED_GROUPS", {})


@pytest.fixture()
def input_noise(monkeypatch):
    """input_noise(seed, eps): from now on every SVD the engine takes for
    weights (qstate._svd_weights) is of its tensor plus seeded complex
    noise relative to its largest entry, t + eps * max|t| * (u + iv) with
    u and v uniform in [-1, 1]: a stand-in for another LAPACK's backward
    error.  Each call starts a fresh stream and empties the named factors'
    shared memos, so no weight taken before is read."""
    original = qstate._svd_weights

    def install(seed, eps=1e-14):
        rng = np.random.default_rng(seed)

        def noisy(t, keep):
            u = rng.uniform(-1.0, 1.0, t.shape)
            v = rng.uniform(-1.0, 1.0, t.shape)
            return original(t + eps * np.abs(t).max() * (u + 1j * v), keep)

        monkeypatch.setattr(qstate, "_svd_weights", noisy)
        monkeypatch.setattr(qstate, "_NAMED_GROUPS", {})

    return install


@pytest.fixture()
def cpus(monkeypatch):
    """cpus(n): from now on parallel.fork_map sees n CPUs in the process's
    affinity (one runs every job in this process, n >= 2 every n-th, with
    n - 1 forked workers for the others)."""
    return lambda n: monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture()
def forks(monkeypatch):
    """The pid of the process that made each os.fork call from now on; a
    forked child appends to its own copy."""
    made = []
    fork = os.fork

    def counted():
        made.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return made


@pytest.fixture()
def no_child():
    """no_child(): this process has no child left, running or unreaped."""
    def check():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    return check
