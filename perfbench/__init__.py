"""delo benchmark: workloads, tracing and reference checks (see README.md)."""
