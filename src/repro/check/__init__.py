"""repro.check: static verification of plans, schedules, and the repo.

Two halves share one diagnostic currency:

* the **domain analyzer** (:mod:`~repro.check.analyzer`,
  :mod:`~repro.check.hazards`, :mod:`~repro.check.records`) verifies
  dataflow invariants of a network + partition + plan in milliseconds,
  with no NumPy execution — geometry, buffer bounds, schedule hazards,
  record integrity;
* the **repo linter** (:mod:`~repro.check.lint`) walks source ASTs to
  enforce the determinism, error-hierarchy, counter-naming, and
  CLI-documentation contracts.

Entry points: ``repro check`` on the command line;
:func:`check_network` / :func:`lint_paths` from code;
``serve.compile_plan`` and ``tune.tune`` run the relevant validators on
their own outputs by default.
"""

from .analyzer import (
    check_group,
    check_levels,
    check_network,
    check_partition,
    check_pyramid_geometry,
)
from .concurrency import check_concurrency_paths
from .diagnostics import CODES, CheckReport, Diagnostic, Severity, diag
from .dist import (
    check_pipeline_plan,
    check_pipeline_plan_dict,
    check_pipeline_plan_file,
)
from .graph import (
    check_graph_dict,
    check_graph_network,
    check_graph_plan_dict,
)
from .hazards import (
    check_fused_schedule,
    check_pipeline_schedule,
)
from .lint import lint_paths
from .soak import check_soak_report_dict, check_soak_report_file
from .trace import check_trace_file
from .records import (
    check_compiled_plan,
    check_plan_cache_file,
    check_plan_dict,
    check_tuned_record,
    check_tuning_db_file,
)

__all__ = [
    "CODES",
    "CheckReport",
    "Diagnostic",
    "Severity",
    "check_compiled_plan",
    "check_concurrency_paths",
    "check_fused_schedule",
    "check_graph_dict",
    "check_graph_network",
    "check_graph_plan_dict",
    "check_group",
    "check_levels",
    "check_network",
    "check_partition",
    "check_pipeline_plan",
    "check_pipeline_plan_dict",
    "check_pipeline_plan_file",
    "check_pipeline_schedule",
    "check_plan_cache_file",
    "check_plan_dict",
    "check_pyramid_geometry",
    "check_soak_report_dict",
    "check_soak_report_file",
    "check_tuned_record",
    "check_tuning_db_file",
    "check_trace_file",
    "diag",
    "lint_paths",
]
