"""Mutation self-test: the oracle+shrinker pipeline catches a real bug.

A deliberately broken copy of the compiled bit-parallel kernel (every
AND in the op table swapped with OR) is injected as a backend.  The
differential oracle must flag it against the interpreted reference,
and the shrinker must reduce the disagreeing scenario to a
counterexample with at most 4 tasks — proving the pipeline would
actually catch and minimise a kernel miscompilation, not just pass
healthy code.
"""

import dataclasses

import pytest

from repro.core.enumeration import enumerate_configurations
from repro.core.kernel import (
    _AND,
    _OR,
    _KernelRun,
    compile_problem,
)
from repro.core.progress import ScanCounters
from repro.verify import check_scenario, generate_scenario, shrink_scenario


def _mutant_bits(problem, *, progress=None, counters=None):
    """The bits backend with AND and OR swapped in the op table."""
    kernel = compile_problem(problem)
    swapped = tuple(
        (
            _OR if op == _AND else _AND if op == _OR else op,
            dst,
            a,
            b,
        )
        for op, dst, a, b in kernel.program
    )
    mutant = dataclasses.replace(kernel, program=swapped)
    run = _KernelRun(mutant, 10)
    accumulator: dict = {}
    run.scan(accumulator, counters or ScanCounters())
    return accumulator


TABLE = {"interp": enumerate_configurations, "bits": _mutant_bits}


def _find_disagreeing_scenario():
    for seed in range(20):
        scenario = generate_scenario(seed)
        report = check_scenario(scenario, backends=TABLE)
        if not report.ok:
            return scenario, report
    pytest.fail("op-table mutation survived 20 fuzzing seeds")


def test_oracle_detects_the_mutation():
    scenario, report = _find_disagreeing_scenario()
    kinds = {d.kind for d in report.disagreements}
    assert kinds <= {"configuration-set", "probability"}
    assert any(d.backend == "bits" for d in report.disagreements)
    # The healthy kernel agrees on the very same scenario, so the
    # detection is attributable to the injected op-table swap alone.
    assert check_scenario(scenario).ok


def test_shrinker_minimises_the_mutation_counterexample():
    scenario, _ = _find_disagreeing_scenario()

    def reproduces(candidate):
        return not check_scenario(candidate, backends=TABLE).ok

    result = shrink_scenario(scenario, reproduces)
    minimal = result.scenario
    assert reproduces(minimal)
    assert len(minimal.ftlqn.tasks) <= 4, sorted(minimal.ftlqn.tasks)
    assert result.steps, "shrinker accepted no reduction"
    # Minimality: the shrunken scenario keeps only unreliable
    # variables that matter to the disagreement.
    assert minimal.unreliable_count() <= scenario.unreliable_count()
