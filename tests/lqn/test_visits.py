"""Reference visits: exact path sums, linear cost on deep layered models.

Every entry of layer ``l`` calls both entries of layer ``l + 1``, so the
number of call *paths* doubles per layer while the number of calls
grows linearly.  Visits are one propagation through the call table; a
per-path recursion took seconds at 20 layers and would take many
minutes at 30.
"""

import time

from repro.lqn import LQNCall, LQNModel, solve_lqn, throughput_bounds
from repro.lqn.solver import reference_visits

MEANS = {"a": 1.0, "b": 0.5}


def layered_model(layers: int) -> LQNModel:
    """``layers`` server layers of two entries, each calling both
    entries of the next layer, under a two-entry reference task."""
    m = LQNModel(name=f"layered-{layers}")
    m.add_processor("p_users")
    m.add_task("users", processor="p_users", multiplicity=2,
               is_reference=True, think_time=1.0)
    for layer in range(1, layers + 1):
        m.add_processor(f"p{layer}")
        m.add_task(f"t{layer}", processor=f"p{layer}")
    for layer in range(layers, -1, -1):
        calls = (
            [LQNCall(f"e{layer + 1}{side}", mean_calls=MEANS[side]) for side in "ab"]
            if layer < layers
            else []
        )
        task = "users" if layer == 0 else f"t{layer}"
        for side in "ab":
            m.add_entry(f"e{layer}{side}", task=task, demand=1e-6, calls=calls)
    return m


def path_sum_visits(model: LQNModel) -> dict[str, float]:
    """The per-path definition: one term per call path from a
    reference entry, each the product of its ``mean_calls``."""
    table: dict[str, float] = {}

    def walk(name: str, factor: float) -> None:
        table[name] = table.get(name, 0.0) + factor
        for call in model.entries[name].calls:
            walk(call.target, factor * call.mean_calls)

    for entry in model.entries_of_task("users"):
        walk(entry.name, 1.0)
    return table


def test_visits_equal_the_path_sum_exactly():
    model = layered_model(6)
    assert reference_visits(model) == {"users": path_sum_visits(model)}


def test_visits_grow_geometrically_per_layer():
    visits = reference_visits(layered_model(8))["users"]
    # Both entries of a layer call both of the next, at 1.0 and 0.5
    # calls, so a layer's total visits grow by 1.5 per layer.
    assert visits["e1a"] == 2.0
    assert visits["e8a"] == 2.0 * 1.5 ** 7
    assert visits["e8b"] == 1.5 ** 7


def test_thirty_layers_solve_and_bound_in_under_a_second():
    model = layered_model(30)
    start = time.perf_counter()
    results = solve_lqn(model)
    bounds = throughput_bounds(model)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, elapsed
    assert results.converged
    assert results.task_throughputs["users"] <= bounds["users"].throughput
