"""Batched Bard–Schweitzer AMVA: parity with sequential solves,
non-finite input rejection, and convergence masking."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, SolverError
from repro.lqn.mva import (
    Discipline,
    Station,
    StationKind,
    exact_mva,
    schweitzer_mva,
    schweitzer_mva_batch,
)


def random_network(rng: np.random.Generator):
    """One random closed network: stations, demands, populations, thinks."""
    classes = int(rng.integers(1, 5))
    station_count = int(rng.integers(1, 5))
    stations = []
    for k in range(station_count):
        kind = StationKind.QUEUE if rng.random() < 0.8 else StationKind.DELAY
        discipline = Discipline.FCFS if rng.random() < 0.5 else Discipline.PS
        multiplicity = int(rng.integers(1, 4))
        stations.append(
            Station(
                name=f"s{k}", kind=kind, multiplicity=multiplicity,
                discipline=discipline,
            )
        )
    demands = rng.uniform(0.0, 2.0, size=(classes, station_count))
    # Sparsify, but keep at least one positive demand per class.
    demands *= rng.random(size=demands.shape) < 0.7
    for c in range(classes):
        if not (demands[c] > 0).any():
            demands[c, int(rng.integers(0, station_count))] = rng.uniform(
                0.1, 2.0
            )
    visits = np.where(demands > 0, rng.integers(1, 4, size=demands.shape), 0.0)
    populations = [float(rng.integers(0, 30)) for _ in range(classes)]
    if not any(populations):
        populations[0] = float(rng.integers(1, 30))
    thinks = [float(rng.uniform(0.0, 5.0)) for _ in range(classes)]
    return stations, demands.astype(float), visits.astype(float), populations, thinks


class TestNonFiniteInputs:
    """Regression: NaN inputs used to propagate through the fixed point,
    burning the whole iteration budget before a misleading
    ConvergenceError with ``residual=nan``."""

    def test_nan_demand_rejected_fast(self):
        stations = [Station("s")]
        with pytest.raises(SolverError, match="finite"):
            schweitzer_mva(stations, np.array([[np.nan]]), [2.0], [1.0])

    def test_inf_demand_rejected(self):
        stations = [Station("s")]
        with pytest.raises(SolverError, match="finite"):
            schweitzer_mva(stations, np.array([[np.inf]]), [2.0], [1.0])

    def test_nan_population_rejected(self):
        stations = [Station("s")]
        with pytest.raises(SolverError, match="finite"):
            schweitzer_mva(
                stations, np.array([[0.5]]), [float("nan")], [1.0]
            )

    def test_nan_think_time_rejected(self):
        stations = [Station("s")]
        with pytest.raises(SolverError, match="finite"):
            schweitzer_mva(
                stations, np.array([[0.5]]), [2.0], [float("nan")]
            )

    def test_exact_mva_rejects_nan(self):
        stations = [Station("s")]
        with pytest.raises(SolverError, match="finite"):
            exact_mva(stations, np.array([[np.nan]]), [2], [0.0])

    def test_batch_rejects_nan(self):
        stations = [Station("s")]
        with pytest.raises(SolverError, match="finite"):
            schweitzer_mva_batch(
                stations,
                np.array([[[0.5]], [[np.nan]]]),
                np.array([[2.0], [2.0]]),
                np.array([[1.0], [1.0]]),
            )


def class_loop_reference(stations, demands, populations, thinks, visits):
    """Bard–Schweitzer AMVA on one network, one class at a time: the
    evaluation order :func:`schweitzer_mva_batch` must reproduce."""
    pops = np.asarray(populations, dtype=float)
    thinks = np.asarray(thinks, dtype=float)
    classes, count = demands.shape
    is_queue = np.array([s.kind is StationKind.QUEUE for s in stations])
    is_fcfs = np.array(
        [s.kind is StationKind.QUEUE and s.discipline is Discipline.FCFS
         for s in stations]
    )
    m = np.array([s.multiplicity for s in stations])
    split = is_queue & (m > 1)
    extra = np.where(split, demands * (m - 1) / m, 0.0)
    queue_demand = np.where(split, demands / m, demands)
    queue_service = np.divide(
        queue_demand, visits, out=np.zeros_like(queue_demand), where=visits > 0
    )
    active = pops > 0
    ratio = np.maximum(
        0.0, np.divide(pops - 1.0, pops, out=np.zeros_like(pops), where=active)
    )
    positive = demands > 0
    share = np.divide(
        pops, positive.sum(axis=1), out=np.zeros_like(pops),
        where=active & positive.any(axis=1),
    )
    queue = positive * share[:, None]
    for iteration in range(1, 100_001):
        residence = np.zeros_like(demands)
        for c in np.flatnonzero(active):
            seen_total = np.zeros(count)
            backlog = np.zeros(count)
            for j in range(classes):
                seen = queue[j] * ratio[c] if j == c else queue[j]
                seen_total = seen_total + seen
                backlog = backlog + queue_service[j] * seen
            fcfs = visits[c] * (queue_service[c] + backlog) + extra[c]
            ps = queue_demand[c] * (1.0 + seen_total) + extra[c]
            residence[c] = np.where(
                is_queue, np.where(is_fcfs, fcfs, ps), demands[c]
            )
        throughput = np.divide(
            pops, thinks + residence.sum(axis=1), out=np.zeros_like(pops),
            where=active,
        )
        new_queue = throughput[:, None] * residence
        delta = np.abs(new_queue - queue).max()
        queue = new_queue
        if delta < 1e-10:
            return throughput, residence, queue, iteration
    raise AssertionError("reference did not converge")


class TestMatchesClassLoopReference:
    """The vectorised kernel keeps the per-class evaluation order of a
    plain loop, so its results are equal to the loop's, not just close."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_networks_equal_the_loop(self, seed):
        rng = np.random.default_rng(100 + seed)
        stations, demands, visits, populations, thinks = random_network(rng)
        batch = np.stack(
            [demands * rng.uniform(0.5, 1.5, size=demands.shape) for _ in range(3)]
        )
        result = schweitzer_mva_batch(
            stations, batch, np.stack([populations] * 3),
            np.stack([thinks] * 3), visits=np.stack([visits] * 3),
        )
        for b in range(3):
            throughput, residence, queue, iterations = class_loop_reference(
                stations, batch[b], populations, thinks, visits
            )
            np.testing.assert_array_equal(result.throughputs[b], throughput)
            np.testing.assert_array_equal(result.residence_times[b], residence)
            np.testing.assert_array_equal(result.queue_lengths[b], queue)
            assert result.iterations[b] == iterations


class TestBatchMatchesSequential:
    """The tentpole guarantee: a batched solve is bit-identical to N
    independent sequential solves of the same elements."""

    @pytest.mark.parametrize("seed", range(12))
    def test_random_networks_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        stations, demands, visits, populations, thinks = random_network(rng)
        batch = int(rng.integers(2, 8))
        all_demands = np.stack(
            [
                demands * rng.uniform(0.5, 1.5, size=demands.shape)
                for _ in range(batch)
            ]
        )
        all_visits = np.broadcast_to(visits, all_demands.shape).copy()
        all_pops = np.stack(
            [
                np.asarray(populations, dtype=float)
                for _ in range(batch)
            ]
        )
        all_thinks = np.stack(
            [np.asarray(thinks, dtype=float) for _ in range(batch)]
        )
        result = schweitzer_mva_batch(
            stations, all_demands, all_pops, all_thinks, visits=all_visits
        )
        assert result.converged.all()
        for b in range(batch):
            solo = schweitzer_mva(
                stations, all_demands[b], list(all_pops[b]),
                list(all_thinks[b]), visits=all_visits[b],
            )
            np.testing.assert_array_equal(
                result.throughputs[b], solo.throughputs
            )
            np.testing.assert_array_equal(
                result.residence_times[b], solo.residence_times
            )
            np.testing.assert_array_equal(
                result.queue_lengths[b], solo.queue_lengths
            )
            np.testing.assert_array_equal(
                result.utilizations[b], solo.utilizations
            )
            np.testing.assert_array_equal(
                result.cycle_times[b], solo.cycle_times
            )

    def test_padded_zero_population_classes_are_inert(self):
        """Padding a batch with zero-population classes must not change
        the other classes' solution bitwise — the property the layered
        solver's class padding relies on."""
        stations = [Station("q", discipline=Discipline.FCFS)]
        demands = np.array([[1.0], [0.5]])
        visits = np.array([[2.0], [1.0]])
        pops = [3.0, 4.0]
        thinks = [1.0, 0.5]
        solo = schweitzer_mva(stations, demands, pops, thinks, visits=visits)

        padded = schweitzer_mva_batch(
            stations,
            np.array([[[1.0], [0.5], [7.0]]]),
            np.array([[3.0, 4.0, 0.0]]),
            np.array([[1.0, 0.5, 9.0]]),
            visits=np.array([[[2.0], [1.0], [3.0]]]),
        )
        np.testing.assert_array_equal(
            padded.throughputs[0][:2], solo.throughputs
        )
        np.testing.assert_array_equal(
            padded.queue_lengths[0][:2], solo.queue_lengths
        )
        assert padded.throughputs[0][2] == 0.0

    def test_per_element_multiplicities(self):
        """Elements may override station multiplicity (the layered
        solver batches different submodel stations into one call)."""
        demands = np.array([[[2.0]], [[2.0]]])
        pops = np.array([[6.0], [6.0]])
        thinks = np.array([[1.0], [1.0]])
        batched = schweitzer_mva_batch(
            [Station("q", discipline=Discipline.FCFS)],
            demands, pops, thinks,
            multiplicities=np.array([[1], [3]]),
        )
        solo_m1 = schweitzer_mva(
            [Station("q", discipline=Discipline.FCFS, multiplicity=1)],
            demands[0], [6.0], [1.0],
        )
        solo_m3 = schweitzer_mva(
            [Station("q", discipline=Discipline.FCFS, multiplicity=3)],
            demands[1], [6.0], [1.0],
        )
        np.testing.assert_array_equal(batched.throughputs[0], solo_m1.throughputs)
        np.testing.assert_array_equal(batched.throughputs[1], solo_m3.throughputs)
        assert batched.throughputs[1][0] > batched.throughputs[0][0]

    def test_element_view_matches_sequential_wrapper(self):
        stations = [Station("q"), Station("d", kind=StationKind.DELAY)]
        demands = np.array([[[0.4, 1.0]]])
        result = schweitzer_mva_batch(
            stations, demands, np.array([[5.0]]), np.array([[0.0]])
        )
        view = result.element(0)
        solo = schweitzer_mva(stations, demands[0], [5.0], [0.0])
        np.testing.assert_array_equal(view.throughputs, solo.throughputs)
        np.testing.assert_array_equal(view.queue_lengths, solo.queue_lengths)


class TestBatchConvergenceMasking:
    def test_iterations_reported_per_element(self):
        """A trivially convergent element must freeze early while a
        contended one keeps iterating — per-element masking."""
        stations = [Station("q", discipline=Discipline.FCFS)]
        demands = np.array([[[0.1]], [[1.0]]])
        pops = np.array([[1.0], [40.0]])
        thinks = np.array([[10.0], [2.0]])
        result = schweitzer_mva_batch(stations, demands, pops, thinks)
        assert result.converged.all()
        assert result.iterations[0] < result.iterations[1]

    def test_unconverged_elements_flagged_not_raised(self):
        stations = [Station("q", discipline=Discipline.FCFS)]
        demands = np.array([[[1.0]], [[0.5]]])
        pops = np.array([[20.0], [10.0]])
        thinks = np.array([[5.0], [1.0]])
        result = schweitzer_mva_batch(
            stations, demands, pops, thinks,
            max_iterations=1, raise_on_failure=False,
        )
        assert not result.converged.any()
        assert (result.iterations == 1).all()

    def test_raise_on_failure_matches_sequential_contract(self):
        stations = [Station("q")]
        demands = np.array([[[1.0]]])
        with pytest.raises(ConvergenceError):
            schweitzer_mva_batch(
                stations, demands, np.array([[20.0]]), np.array([[3.0]]),
                max_iterations=1,
            )

    def test_empty_batch(self):
        result = schweitzer_mva_batch(
            [Station("q")], np.zeros((0, 1, 1)), np.zeros((0, 1)),
            np.zeros((0, 1)),
        )
        assert result.throughputs.shape == (0, 1)
        assert result.converged.shape == (0,)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SolverError, match="shape"):
            schweitzer_mva_batch(
                [Station("q")], np.zeros((2, 1, 1)), np.zeros((3, 1)),
                np.zeros((2, 1)),
            )
