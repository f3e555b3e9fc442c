"""Full reproduction of the paper's §6 evaluation.

Regenerates every table and figure of the evaluation section:

* Table 1 — perfect vs centralized configuration probabilities,
  rewards and expected reward rates;
* Table 2 — the five cases (perfect + four architectures);
* Figure 11 — expected reward rate vs weight of UserB;
* the §6.3 state-space sizes and solution times (the enumerative
  method and the symbolic ``bdd`` backend).

Run with::

    python examples/paper_evaluation.py            # all artifacts
    python examples/paper_evaluation.py table2     # one artifact
"""

import sys

from repro.experiments.figure11 import run_figure11
from repro.experiments.reporting import (
    format_figure11,
    format_statespace,
    format_table1,
    format_table2,
)
from repro.experiments.sensitivity import format_sensitivity, run_sensitivity
from repro.experiments.statespace import run_statespace
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2

ARTIFACTS = {
    "table1": lambda: format_table1(run_table1()),
    "table2": lambda: format_table2(run_table2()),
    "figure11": lambda: format_figure11(run_figure11()),
    "statespace": lambda: format_statespace(run_statespace()),
    "sensitivity": lambda: format_sensitivity(run_sensitivity()),
}


def main(selected: list[str]) -> None:
    names = selected or list(ARTIFACTS)
    unknown = [name for name in names if name not in ARTIFACTS]
    if unknown:
        raise SystemExit(
            f"unknown artifact(s) {unknown}; choose from {list(ARTIFACTS)}"
        )
    for name in names:
        print(f"=== {name} " + "=" * (70 - len(name)))
        print(ARTIFACTS[name]())
        print()


if __name__ == "__main__":
    main(sys.argv[1:])
