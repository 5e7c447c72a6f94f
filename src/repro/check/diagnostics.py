"""Structured diagnostics: the currency of the static analyzer.

Every check in :mod:`repro.check` reports through a
:class:`Diagnostic` — a stable machine-readable ``code`` (``RC...`` for
the domain analyzer, ``RL...`` for the repo linter), a
:class:`Severity`, a one-line message, and a context mapping with the
offending values — instead of raising. A broken plan yields the *full*
list of everything wrong with it, CI can grep exact codes, and the
fixture tests can pin each seeded defect to its code forever.

Code families (the table in ``docs/static-analysis.md`` mirrors this):

====== ==========================================================
RC1xx  geometry: shapes, strides, padding, pyramid tiles
RC2xx  resources: BRAM/DSP bounds, buffer sizing, weight residency
RC3xx  schedules: hazards in fused/pipeline/channel schedules
RC4xx  records: compiled plans, plan caches, tuning databases
RC5xx  traces: exported request-trace files (JSONL / Chrome trace)
RC6xx  soak: overload-soak reports (accounting, correctness, scaling)
RC7xx  graphs: DAG structure, joins, lowering coverage
RC8xx  pipeline plans: stage coverage, device fits, links, aliasing
RL1xx  lint: error-hierarchy discipline
RL2xx  lint: determinism (seeded randomness, wall clock)
RL3xx  lint: observability naming conventions
RL4xx  lint: CLI/README documentation drift
RL5xx  lint: concurrency (races, lock discipline, lost wakeups)
====== ==========================================================

Codes are append-only: a code, once released, keeps its meaning.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


class Severity(enum.Enum):
    """How bad a diagnostic is.

    ``ERROR`` — the checked artifact is wrong: an infeasible design, a
    broken invariant, a tampered record. Always fails the check.
    ``WARNING`` — suspicious but possibly intended (e.g. weights that
    will not stay resident). Fails only under ``--strict``.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


#: The full registry of diagnostic codes: code -> (default severity, title).
#: Append-only; never renumber.
CODES: Dict[str, tuple] = {
    # -- RC1xx geometry -----------------------------------------------------
    "RC101": (Severity.ERROR, "level shape mismatch"),
    "RC102": (Severity.ERROR, "tip/tile exceeds output map"),
    "RC103": (Severity.ERROR, "tile extent indivisible by stride"),
    "RC104": (Severity.ERROR, "padding inconsistency"),
    "RC105": (Severity.ERROR, "partition does not cover the network"),
    "RC106": (Severity.ERROR, "pyramid geometry drift"),
    # -- RC2xx resources ----------------------------------------------------
    "RC201": (Severity.ERROR, "on-chip buffers exceed device BRAM"),
    "RC202": (Severity.ERROR, "design exceeds the DSP budget"),
    "RC203": (Severity.WARNING, "weights cannot stay resident on chip"),
    "RC204": (Severity.WARNING, "LUT/FF estimate exceeds the device"),
    "RC205": (Severity.WARNING, "tile cap exceeds the channel count"),
    # -- RC3xx schedule hazards ---------------------------------------------
    "RC301": (Severity.ERROR, "read-before-write hazard"),
    "RC302": (Severity.ERROR, "overlap conflict (double-buffer clobber)"),
    "RC303": (Severity.ERROR, "schedule timing inconsistency"),
    "RC304": (Severity.ERROR, "memory channel over-committed"),
    "RC305": (Severity.ERROR, "schedule does not cover the output map"),
    "RC306": (Severity.WARNING, "stall accounting inconsistency"),
    # -- RC4xx records ------------------------------------------------------
    "RC401": (Severity.ERROR, "plan fingerprint does not match network"),
    "RC402": (Severity.ERROR, "plan partition/geometry invalid"),
    "RC403": (Severity.ERROR, "plan key field invalid or incomplete"),
    "RC404": (Severity.ERROR, "plan-cache key aliasing"),
    "RC405": (Severity.ERROR, "stale tuning record (dangling incumbent)"),
    "RC406": (Severity.ERROR, "tuning record fingerprint mismatch"),
    "RC407": (Severity.ERROR, "tuning record key/candidate mismatch"),
    "RC408": (Severity.ERROR, "malformed record file"),
    # -- RC5xx traces --------------------------------------------------------
    "RC501": (Severity.ERROR, "malformed trace file"),
    "RC502": (Severity.ERROR, "incomplete span (begin without end)"),
    "RC503": (Severity.ERROR, "orphan span (parent not in trace)"),
    "RC504": (Severity.ERROR, "span timing inconsistency"),
    "RC505": (Severity.WARNING, "unmatched flow event"),
    # -- RC6xx soak reports ---------------------------------------------------
    "RC601": (Severity.ERROR, "malformed soak report"),
    "RC602": (Severity.ERROR, "soak produced wrong answers"),
    "RC603": (Severity.ERROR, "soak request accounting inconsistent"),
    "RC604": (Severity.ERROR, "guaranteed-class request was shed"),
    "RC605": (Severity.ERROR, "scale event outside worker bounds"),
    "RC606": (Severity.ERROR, "latency percentiles non-monotone"),
    # -- RC7xx graphs ---------------------------------------------------------
    "RC701": (Severity.ERROR, "dangling edge (input names no node)"),
    "RC702": (Severity.ERROR, "cycle in graph"),
    "RC703": (Severity.ERROR, "join operand shape/channel mismatch"),
    "RC704": (Severity.ERROR, "lowering does not cover the graph"),
    "RC705": (Severity.ERROR, "invalid graph node"),
    "RC706": (Severity.ERROR, "invalid graph plan record"),
    "RC707": (Severity.WARNING, "integer-mode exactness not provable"),
    # -- RC8xx pipeline (multi-device) plans ----------------------------------
    "RC801": (Severity.ERROR, "stage split does not cover the network"),
    "RC802": (Severity.ERROR, "stage exceeds its device's DSP budget"),
    "RC803": (Severity.WARNING, "stage working set exceeds device BRAM"),
    "RC804": (Severity.ERROR, "link traffic inconsistent with link model"),
    "RC805": (Severity.ERROR, "pipeline plan key aliases another plan"),
    "RC806": (Severity.ERROR, "pipeline interval/latency mispriced"),
    # -- RL lint ------------------------------------------------------------
    "RL101": (Severity.ERROR, "bare ValueError/RuntimeError raise"),
    "RL201": (Severity.ERROR, "unseeded randomness in deterministic module"),
    "RL202": (Severity.ERROR, "wall-clock read in deterministic module"),
    "RL301": (Severity.ERROR, "obs counter/gauge name violates convention"),
    "RL302": (Severity.ERROR, "event/span name violates convention"),
    "RL401": (Severity.ERROR, "CLI subcommand missing from README"),
    "RL501": (Severity.ERROR, "unguarded write to a lock-guarded attribute"),
    "RL502": (Severity.ERROR, "blocking call while holding a lock"),
    "RL503": (Severity.ERROR, "lock-acquisition cycle (potential deadlock)"),
    "RL504": (Severity.ERROR, "lost-wakeup pattern (notify/wait misuse)"),
    "RL505": (Severity.ERROR, "thread started before __init__ completes"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the static analyzer or linter."""

    code: str
    severity: Severity
    message: str
    #: Where the finding anchors: a layer/group name, ``file:line``, a
    #: record key ... whatever locates the defect for a human.
    site: str = ""
    context: Dict[str, Any] = field(default_factory=dict)

    @property
    def title(self) -> str:
        return CODES[self.code][1]

    @property
    def is_error(self) -> bool:
        return self.severity is Severity.ERROR

    def render(self) -> str:
        site = f" {self.site}:" if self.site else ""
        text = f"{self.code} [{self.severity.value}]{site} {self.message}"
        if self.context:
            details = ", ".join(f"{k}={v!r}"
                                for k, v in sorted(self.context.items()))
            text += f" ({details})"
        return text

    def to_dict(self) -> Dict[str, Any]:
        return {"code": self.code, "severity": self.severity.value,
                "title": self.title, "message": self.message,
                "site": self.site, "context": dict(self.context)}


def diag(code: str, message: str, site: str = "",
         severity: Optional[Severity] = None, **context: Any) -> Diagnostic:
    """Build a :class:`Diagnostic`, defaulting severity from :data:`CODES`.

    Unknown codes are rejected loudly — a typo in a check would otherwise
    mint an untracked code and silently break the stability contract.
    """
    if code not in CODES:
        raise KeyError(f"unknown diagnostic code {code!r}")
    return Diagnostic(code=code,
                      severity=severity or CODES[code][0],
                      message=message, site=site, context=dict(context))


@dataclass
class CheckReport:
    """The aggregate outcome of one ``repro check`` run."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    #: Human-readable labels of the checks that ran (for the report).
    checks_run: List[str] = field(default_factory=list)

    def extend(self, label: str, diagnostics: Sequence[Diagnostic]) -> None:
        self.checks_run.append(label)
        self.diagnostics.extend(diagnostics)

    def merge(self, other: "CheckReport") -> None:
        """Fold another report in (the CLI aggregates one per request)."""
        self.checks_run.extend(other.checks_run)
        self.diagnostics.extend(other.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.is_error]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if not d.is_error]

    def ok(self, strict: bool = False) -> bool:
        """Whether the run passes: no errors, and no warnings if strict."""
        if self.errors:
            return False
        return not (strict and self.warnings)

    def exit_code(self, strict: bool = False) -> int:
        """The CLI contract: 0 clean, 2 on errors (or warnings + strict)."""
        return 0 if self.ok(strict) else 2

    def render(self, verbose: bool = True) -> str:
        lines: List[str] = []
        if verbose:
            for label in self.checks_run:
                lines.append(f"check: {label}")
        for d in self.diagnostics:
            lines.append(d.render())
        lines.append(f"{len(self.errors)} errors, "
                     f"{len(self.warnings)} warnings "
                     f"({len(self.checks_run)} checks)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {"checks": list(self.checks_run),
                "errors": len(self.errors),
                "warnings": len(self.warnings),
                "diagnostics": [d.to_dict() for d in self.diagnostics]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)
