"""The repository benchmark: workloads, tracing and self-tests (see RATIONALE.md)."""
