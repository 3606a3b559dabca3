"""The benchmark's workloads: a flow script and the circuits it runs on.

Every workload is a fixed list of ``repro.benchgen`` circuits at one size
preset, plus an ABC-style flow script.  The benchmark seed enters the script
only as ``extract(seed=...)``; the circuits do not depend on it, so every seed
measures the same amount of work.  See ``NOTES.md`` for why each workload and
circuit was chosen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

#: ``saturate(time_limit=...)`` in seconds, set far above any observed
#: saturation run (under 20 s), so the iteration and node caps always bind and
#: QoR is a pure function of the input.  A run that still stops on the time
#: limit counts as failed.
SATURATE_TIME_LIMIT = 3600.0

#: The canonical E-morphic flow (ROADMAP); ``{seed}`` is the benchmark seed.
EMORPHIC_SCRIPT = (
    "strash; strash; sop_balance; strash; sop_balance; strash; premap; dag2eg; "
    f"saturate(time_limit={SATURATE_TIME_LIMIT}); extract(migrate_every=8, seed={{seed}}); "
    "map(use_choices=true); cec"
)

#: The delay-oriented baseline flow the paper compares against.
BASELINE_SCRIPT = (
    "strash; strash; sop_balance; strash; sop_balance; strash; map(use_choices=true); cec"
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    preset: str
    circuits: Tuple[str, ...]
    script_template: str

    def script(self, seed: int) -> str:
        """The flow script for one benchmark seed."""
        return self.script_template.format(seed=seed)


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("emorphic-bench", "bench", ("adder", "sqrt", "mem_ctrl"), EMORPHIC_SCRIPT),
        Workload("baseline-bench", "bench", ("adder", "sqrt", "mem_ctrl"), BASELINE_SCRIPT),
        Workload("saturate-test", "test", ("adder",), EMORPHIC_SCRIPT),
    )
}
