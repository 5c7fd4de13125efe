"""The incorrectness arm: under-approximate summaries, true-positive bugs.

*Compositional Symbolic Execution for Correctness and Incorrectness
Reasoning* (arXiv 2407.10838) observes that summaries come in two
polarities.  Verify mode (over-approximating consumers) must refuse a
summary that lost paths; **incorrectness mode** may *drop paths freely
but never widen* — every path a partial summary keeps is a genuine
execution, so any error it reaches is reachable.  Operationally that
means incomplete summaries (summarisation budget cut the path set) are
replayed instead of rejected, and the bug-finding run is allowed to
miss bugs but not to invent them.

:func:`find_bugs` runs a procedure in that mode and then *discharges*
the no-false-positive obligation per report: each error final's path
condition is handed to the solver for a model, and the model is
replayed concretely through
:func:`repro.soundness.differential.check_final` (Theorem 3.6's
counter-model replay).  A bug is ``confirmed`` only when the concrete
run reproduces the error with a matching value.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional

from repro.engine.config import EngineConfig
from repro.engine.explorer import Explorer
from repro.engine.parallel import SymbolicModelFactory
from repro.engine.results import ExecutionStats
from repro.gil.semantics import OutcomeKind
from repro.gil.syntax import Prog
from repro.targets.language import Language


@dataclass
class SummaryBug:
    """One error reached through (possibly partial) summaries."""

    value: object          # the symbolic error value
    model: Optional[dict]  # counter-model ε of the error path, if found
    confirmed: bool        # concrete replay reproduced the error
    detail: str = ""       # mismatch diagnosis when not confirmed


@dataclass
class IncorrectnessReport:
    """Everything one incorrectness-mode run established."""

    entry: str
    bugs: List[SummaryBug] = field(default_factory=list)
    stats: Optional[ExecutionStats] = None

    @property
    def all_confirmed(self) -> bool:
        """True iff every reported bug replayed concretely (no false
        positives — the mode's defining guarantee)."""
        return all(bug.confirmed for bug in self.bugs)

    @property
    def confirmed(self) -> List[SummaryBug]:
        """The subset of reports that are proven-reachable errors."""
        return [bug for bug in self.bugs if bug.confirmed]


def find_bugs(
    language: Language,
    prog: Prog,
    entry: str,
    config: Optional[EngineConfig] = None,
) -> IncorrectnessReport:
    """Hunt for errors in ``entry`` with under-approximate summaries.

    Forces ``summaries=True, summary_mode="incorrectness"`` onto the
    given configuration, explores symbolically, and confirms every
    error final by concrete counter-model replay.  Reports whose path
    condition has no verified model, or whose replay diverges, stay in
    the report with ``confirmed=False`` — callers trust only the
    confirmed subset.
    """
    base = config if config is not None else EngineConfig()
    run_config = dataclasses.replace(
        base, summaries=True, summary_mode="incorrectness"
    )
    sm = SymbolicModelFactory(language.symbolic_memory(), run_config)()
    result = Explorer(prog, sm, run_config).run(entry)

    from repro.soundness.differential import check_final

    replay_config = dataclasses.replace(base, summaries=False)
    report = IncorrectnessReport(entry=entry, stats=result.stats)
    for fin in result.finals:
        if fin.kind is not OutcomeKind.ERROR:
            continue
        check = check_final(language, prog, entry, fin, sm.solver, replay_config)
        report.bugs.append(
            SummaryBug(
                value=fin.value,
                model=check.model,
                confirmed=check.replayed and check.outcome_matches,
                detail=check.detail,
            )
        )
    return report
