//! Empty stand-in: only resolved, never compiled into the benchmark.
