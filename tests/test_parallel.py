"""The fork helper and the measures' forked SVD fill: same bits as one
process, no child left behind, errors with their own type, no nested fork."""

import os
import sys
import time

import numpy as np
import pytest

from kpem import qstate
from kpem.audit import AuditConfig, run_suite
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
)
from kpem.redfun import ENTROPY

from oracle import check_product, haar_state

SPECS = (
    MeasureSpec("calE_k", 3, h=ENTROPY),
    MeasureSpec("Eprime_k", 4, h=ENTROPY),
    MeasureSpec("CGq_k", 3, parameter=2.0),
)


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


def evaluate_all(make, no_child):
    """Every batch reader, each on a fresh state from make(): calE's
    bipartite sums, Eprime's and CGq's subsets of at most k - 1 parties,
    and unified_mem's two batch kinds.  Returns the results and the weights
    each state's groups hold, and checks that no child outlives a reader."""
    readers = [lambda state, spec=spec: evaluate_measure(spec, state, unsafe_large=True)
               for spec in SPECS]
    readers += [lambda state, kind=kind: unified_mem(kind, ENTROPY, state)
                for kind in ("bipartite_sum", "min_reduced")]
    out = []
    for read in readers:
        state = make()
        result = read(state)
        no_child()
        if not isinstance(result, float):
            result = (result.value, result.witness, result.breakdown)
        weights = [{side: (lam.dtype, lam.shape, lam.tobytes(), lam.flags.writeable)
                    for side, lam in gv.weights.items()} for gv in state.vectors]
        out.append((result, weights))
    return out


@pytest.mark.parametrize("make", [lambda: haar_qubits(10, 10), haar_product],
                         ids=["haar10", "product"])
def test_forked_fill_matches_one_process(monkeypatch, cpus, forks, no_child, cold_named_groups,
                                        make):
    """Forced to fork, every reader gives the one-process values, witnesses
    and breakdowns, and its states hold the same weights, bit for bit and
    read-only."""
    monkeypatch.setattr(qstate, "FORK_COST", 0.0)
    cpus(1)
    want = evaluate_all(make, no_child)
    assert forks == []
    cpus(2)
    got = evaluate_all(make, no_child)
    assert forks == [os.getpid()] * 5  # one child per reader
    assert got == want
    assert all(not writeable for _, weights in got for memo in weights
               for _, _, _, writeable in memo.values())


def test_fill_runs_only_from_the_fork_cost(monkeypatch, cpus):
    """At the shipped FORK_COST the SVD batches of calE on 7 Haar ququarts
    (35 sides, estimated cost 3.7e7) and on 8 Haar qutrits (91 sides, 2.9e7)
    fork.  The largest batch of the benchmark's sweep, Eprime at
    (n, k) = (10, 5) on Haar qubits (385 sides, 4.6e6), and every batch of
    an audit stay in this process."""
    filled = []

    def one_process(fn, jobs):
        filled.append(len(jobs))
        return [fn(*job) for job in jobs]

    monkeypatch.setattr(qstate, "fork_map", one_process)
    evaluate_measure(SPECS[0], haar_state(SystemLayout.of(list("ABCDEFG"), [4] * 7),
                                          np.random.default_rng(3)))
    evaluate_measure(SPECS[0], haar_state(SystemLayout.of(list("ABCDEFGH"), [3] * 8),
                                          np.random.default_rng(3)))
    assert filled == [35, 91]  # the factorization took the singles
    filled.clear()
    evaluate_measure(MeasureSpec("Eprime_k", 5, h=ENTROPY), haar_qubits(10, 3))
    cpus(1)  # every cell runs here, where the SVD batches are watched
    run_suite(AuditConfig(instances_per_check=3))
    assert filled == []


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
def test_job_error_keeps_its_type_and_leaves_no_worker(cpus, no_child, index, error):
    def job(i):
        if i == index:
            raise error
        return i

    cpus(2)
    with pytest.raises(type(error), match=str(error.args[0])):
        fork_map(job, [(i,) for i in range(8)])
    no_child()


class Unpicklable:
    def __reduce__(self):
        raise TypeError("this result cannot be pickled")


class UnpicklableError(Exception):
    def __reduce__(self):
        raise TypeError("this error cannot be pickled")


class TwoArgumentError(Exception):
    """Pickles, but fails to unpickle: its args hold only `what`."""

    def __init__(self, what, code):
        super().__init__(what)
        self.code = code


def unpicklable_result():
    return Unpicklable()


def unpicklable_error():
    raise UnpicklableError("job")


def unreadable_error():
    raise TwoArgumentError("job", 7)


@pytest.mark.parametrize("job,error,match", [
    (unpicklable_result, TypeError, "this result cannot be pickled"),
    (unpicklable_error, RuntimeError, "could not send its UnpicklableError: this error cannot"),
    (unreadable_error, TypeError, "code"),
], ids=["result", "error", "unreadable"])
def test_what_a_child_cannot_send_raises_here_and_leaves_no_child(cpus, no_child, job, error,
                                                                   match):
    """A child's result or exception that does not pickle raises in this
    process, as does one that does not unpickle here."""
    cpus(2)
    with pytest.raises(error, match=match):
        fork_map(lambda i: job() if i == 1 else i, [(i,) for i in range(4)])
    no_child()


def test_buffered_stdout_is_written_once(monkeypatch, tmp_path, cpus, no_child):
    """Text in sys.stdout's buffer at the fork is written by this process
    alone: a child never flushes the copy it inherited."""
    path = tmp_path / "stdout.txt"
    with open(path, "w") as out:  # a file: block buffered
        monkeypatch.setattr(sys, "stdout", out)
        print("before the fork", end="")
        cpus(3)
        assert fork_map(lambda i: i, [(i,) for i in range(6)]) == list(range(6))
        no_child()
        print(" and after")
    assert path.read_text() == "before the fork and after\n"


def test_error_here_does_not_wait_for_the_children(cpus, no_child):
    """An error in this process's own job kills the children at once."""
    def job(i):
        if i == 0:
            raise KeyError("here")
        time.sleep(30)
        return i

    cpus(2)
    start = time.monotonic()
    with pytest.raises(KeyError, match="here"):
        fork_map(job, [(0,), (1,)])
    assert time.monotonic() - start < 10
    no_child()


@pytest.mark.parametrize("where", ["here", "worker"])
@pytest.mark.parametrize("kind", ["nan", "scaled"])
def test_fill_raises_the_spectrum_contract_with_its_type(monkeypatch, cpus, forks, no_child, where,
                                                         kind):
    """_svd_weights' spectrum check runs in whichever process takes the
    SVD: forced to fork, a group vector with a NaN entry, or scaled by
    1.1, raises NumericalContractError whether its side is job 0 (run
    here) or job 1 (run in the child), and leaves no child behind.  Only
    the carried vector of the costlier (here) or cheaper (child) group is
    off the contract, so the state is assembled unchecked: the unit check
    refuses the NaN vector, and the oracle's product check the scaled
    one, as the product of the vectors has norm 1.1."""
    monkeypatch.setattr(qstate, "FORK_COST", 0.0)
    cpus(2)
    rng = np.random.default_rng(11)
    vectors = [qstate.haar_vector(8, rng), qstate.haar_vector(4, rng)]
    at = 0 if where == "here" else 1
    if kind == "nan":
        vectors[at][1] = np.nan
    else:
        vectors[at] *= 1.1
    groups = (0b00111, 0b11000)
    carried = (qstate.GroupVector(vectors[0], (2, 2, 2)), qstate.GroupVector(vectors[1], (2, 2)))
    state = PureState._trusted(SystemLayout.qubits("ABCDE"), groups, carried)
    if kind == "nan":
        with pytest.raises(NumericalContractError, match="non-finite"):
            qstate._check_unit(carried[at].vector)
    else:
        with pytest.raises(NumericalContractError, match="product"):
            check_product(state)
    # A and D: the side of A (cost 2 x 8) is job 0, the side of D (2 x 4) job 1
    with pytest.raises(NumericalContractError):
        qstate._fill_weights(state, [0b01001])
    assert forks == [os.getpid()]
    no_child()


def test_this_process_runs_every_pth_job(cpus, forks, no_child):
    cpus(3)
    got = fork_map(lambda i: (i, os.getpid()), [(i,) for i in range(50)])
    assert [i for i, _ in got] == list(range(50))
    assert [pid == os.getpid() for _, pid in got] == [i % 3 == 0 for i in range(50)]
    assert forks == [os.getpid()] * 2
    no_child()


def test_nested_evaluation_runs_in_the_calling_process(monkeypatch, cpus, forks, no_child):
    """An evaluation inside a job, whether the job runs here or in a child,
    forks no child of its own, and gives the one-process value."""
    monkeypatch.setattr(qstate, "FORK_COST", 0.0)

    def job(seed):
        before = len(forks)
        value = evaluate_measure(SPECS[0], haar_qubits(8, seed)).value
        return len(forks) - before, value

    cpus(1)
    want = [job(seed) for seed in range(4)]
    cpus(2)
    got = fork_map(job, [(seed,) for seed in range(4)])
    assert len(forks) == 1
    assert got == want
    assert [nested for nested, _ in got] == [0, 0, 0, 0]
    no_child()
    assert evaluate_measure(SPECS[0], haar_qubits(8, 0)).value == want[0][1]
    assert len(forks) == 2  # outside a job the evaluation forks again


def test_one_job_runs_here(cpus, forks):
    cpus(4)
    assert fork_map(os.getpid, [()]) == [os.getpid()]
    assert forks == []
