//! Support code for the HEBS serve benchmark: nearest-rank percentiles,
//! seeded open-loop arrival schedules with lag accounting, in-memory spans
//! with self-time attribution, and the one-line JSON result.
//!
//! The workloads themselves live in the `hebs-perfbench` binary; everything
//! here is deterministic and covered by the self-tests under `tests/`.

#![forbid(unsafe_code)]

pub mod inputs;
pub mod report;
pub mod schedule;
pub mod stats;
pub mod trace;
