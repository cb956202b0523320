"""The repository benchmark: workloads, tracing and checks (see RATIONALE.md)."""
