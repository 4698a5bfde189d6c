"""The fork helper and the measures' forked SVD fill: same bits as one
process, no worker left behind, errors with their own type, no nested pool."""

import multiprocessing
import os
from concurrent import futures

import numpy as np
import pytest

from kpem import qstate
from kpem.measures import MeasureSpec, evaluate_measure, unified_mem
from kpem.parallel import fork_map
from kpem.qstate import (
    AmplitudesFactor,
    GhzFactor,
    MarginalCache,
    NumericalContractError,
    PureState,
    StateSpec,
    SystemLayout,
    build_state,
    haar_state,
)
from kpem.redfun import ENTROPY

SPECS = (
    MeasureSpec("calE_k", 3, h=ENTROPY),
    MeasureSpec("Eprime_k", 4, h=ENTROPY),
    MeasureSpec("CGq_k", 3, parameter=2.0),
)


@pytest.fixture()
def pools(monkeypatch):
    """The pid of the process that started each process pool from now on;
    a forked worker appends to its own copy."""
    started = []

    class Counted(futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(os.getpid())
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", Counted)
    return started


def haar_qubits(n, seed):
    return haar_state(SystemLayout.qubits([chr(ord("A") + i) for i in range(n)]),
                      np.random.default_rng(seed))


def haar_product():
    """A Haar block of 6 qubits, a GHZ3, whose one GroupVector files every
    piece by its size, and a Haar qubit: ten parties in three groups."""
    rng = np.random.default_rng(7)
    factors = []
    for labels in ("ABCDEF", "J"):
        layout = SystemLayout.qubits(list(labels))
        factors.append(AmplitudesFactor(tuple(labels), layout.dims,
                                        tuple(haar_state(layout, rng).amplitudes)))
    return build_state(StateSpec((factors[0], GhzFactor(("G", "H", "I")), factors[1])))


def evaluate_all(make):
    """Every batch reader, each on a fresh state from make(): calE's
    bipartite sums, Eprime's and CGq's subsets of at most k - 1 parties,
    and unified_mem's two batch kinds.  Returns the results and the weights
    each state's groups hold, and checks that no worker outlives a reader."""
    readers = [lambda state, spec=spec: evaluate_measure(spec, state, unsafe_large=True)
               for spec in SPECS]
    readers += [lambda state, kind=kind: unified_mem(kind, ENTROPY, state)
                for kind in ("bipartite_sum", "min_reduced")]
    out = []
    for read in readers:
        state = make()
        result = read(state)
        assert multiprocessing.active_children() == []
        if not isinstance(result, float):
            result = (result.value, result.witness, result.breakdown)
        weights = [{side: (lam.dtype, lam.shape, lam.tobytes(), lam.flags.writeable)
                    for side, lam in gv.weights.items()} for gv in state.group_vectors()]
        out.append((result, weights))
    return out


@pytest.mark.parametrize("make", [lambda: haar_qubits(10, 10), haar_product],
                         ids=["haar10", "product"])
def test_forked_fill_matches_one_process(monkeypatch, cpus, pools, cold_named_groups, make):
    """Forced to fork, every reader gives the one-process values, witnesses
    and breakdowns, and its states hold the same weights, bit for bit and
    read-only."""
    monkeypatch.setattr(qstate, "FORK_COST", 0.0)
    cpus(1)
    want = evaluate_all(make)
    assert pools == []
    cpus(2)
    got = evaluate_all(make)
    assert len(pools) == 5  # one pool per reader
    assert got == want
    assert all(not writeable for _, weights in got for memo in weights
               for _, _, _, writeable in memo.values())


def test_fill_runs_only_from_the_fork_cost(monkeypatch, cpus, pools):
    """At the shipped FORK_COST a 10-qubit Haar state's batches stay in this
    process; a 12-qubit state's bipartitions reach it."""
    cpus(2)
    evaluate_all(lambda: haar_qubits(10, 3))
    assert pools == []
    filled = []

    def one_process(fn, jobs):
        filled.append(len(jobs))
        return [fn(*job) for job in jobs]

    monkeypatch.setattr(qstate, "fork_map", one_process)
    evaluate_measure(SPECS[0], haar_qubits(12, 3))
    assert filled == [2047 - 12 - 66]  # the factorization took the singles and pairs


def test_small_batch_walks_its_masks_once(monkeypatch):
    """Below the fork cost's bound, h_values takes each mask's pieces once,
    as h_value alone would."""
    calls = []
    cuts = PureState.cuts
    monkeypatch.setattr(PureState, "cuts", lambda self, mask: calls.append(mask) or cuts(self, mask))
    state = haar_qubits(6, 1)
    masks = list(range(1, 64))
    values = MarginalCache(state).h_values(ENTROPY, masks)
    assert calls == masks
    assert values == [MarginalCache(state).h_value(ENTROPY, mask) for mask in masks]


@pytest.mark.parametrize("index", [0, 3], ids=["here", "worker"])
@pytest.mark.parametrize("error", [NumericalContractError("norm drifted"), KeyError("job")])
def test_job_error_keeps_its_type_and_leaves_no_worker(cpus, index, error):
    def job(i):
        if i == index:
            raise error
        return i

    cpus(2)
    with pytest.raises(type(error), match=str(error.args[0])):
        fork_map(job, [(i,) for i in range(8)])
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("where", ["here", "worker"])
@pytest.mark.parametrize("kind", ["nan", "scaled"])
def test_fill_raises_the_spectrum_contract_with_its_type(monkeypatch, cpus, pools, where, kind):
    """_svd_weights' spectrum check runs in whichever process takes the
    SVD: forced to fork, a group vector with a NaN entry, or scaled by
    1.1, raises NumericalContractError whether its side is job 0 (run
    here) or job 1 (run in the worker), and leaves no worker behind.  The
    state's amplitudes are a valid product; only the carried vector of
    the costlier (here) or cheaper (worker) group is off the contract, so
    the state is assembled unchecked (the public constructor refuses it)."""
    monkeypatch.setattr(qstate, "FORK_COST", 0.0)
    cpus(2)
    rng = np.random.default_rng(11)
    vectors = [qstate.haar_vector(8, rng), qstate.haar_vector(4, rng)]
    amplitudes = np.kron(*vectors)
    at = 0 if where == "here" else 1
    if kind == "nan":
        vectors[at][1] = np.nan
    else:
        vectors[at] *= 1.1
    groups = (0b00111, 0b11000)
    carried = (qstate.GroupVector(vectors[0], (2, 2, 2)), qstate.GroupVector(vectors[1], (2, 2)))
    with pytest.raises(NumericalContractError, match="product"):
        PureState(SystemLayout.qubits("ABCDE"), amplitudes, groups=groups, vectors=carried)
    state = PureState._trusted(SystemLayout.qubits("ABCDE"), groups, carried, lambda: amplitudes)
    # A and D: the side of A (cost 2 x 8) is job 0, the side of D (2 x 4) job 1
    with pytest.raises(NumericalContractError):
        qstate._fill_weights(state, [0b01001])
    assert pools == [os.getpid()]
    assert multiprocessing.active_children() == []


def test_this_process_runs_every_pth_job(cpus, pools):
    cpus(3)
    got = fork_map(lambda i: (i, os.getpid()), [(i,) for i in range(50)])
    assert [i for i, _ in got] == list(range(50))
    assert [pid == os.getpid() for _, pid in got] == [i % 3 == 0 for i in range(50)]
    assert pools == [os.getpid()]
    assert multiprocessing.active_children() == []


def test_nested_evaluation_runs_in_the_calling_process(monkeypatch, cpus, pools):
    """An evaluation inside a job, whether the job runs here or in a worker,
    starts no pool of its own, and gives the one-process value."""
    monkeypatch.setattr(qstate, "FORK_COST", 0.0)

    def job(seed):
        before = len(pools)
        value = evaluate_measure(SPECS[0], haar_qubits(8, seed)).value
        return len(pools) - before, value

    cpus(1)
    want = [job(seed) for seed in range(4)]
    cpus(2)
    got = fork_map(job, [(seed,) for seed in range(4)])
    assert len(pools) == 1
    assert got == want
    assert [nested for nested, _ in got] == [0, 0, 0, 0]
    assert multiprocessing.active_children() == []
    assert evaluate_measure(SPECS[0], haar_qubits(8, 0)).value == want[0][1]
    assert len(pools) == 2  # outside a job the evaluation forks again


def test_one_job_runs_here(cpus, pools):
    cpus(4)
    assert fork_map(os.getpid, [()]) == [os.getpid()]
    assert pools == []
