//! Two-clock benchmark of the Montsalvat reproduction.
//!
//! Each workload drives the partitioned application only through its
//! public calls (`transform`, `build_partitioned_images`,
//! `PartitionedApp::launch`/`enter_untrusted`, `Ctx::call`,
//! `telemetry_snapshot`, `telemetry::trace::Tracer`) and times every
//! call on two clocks: host time (`Instant`, with `ClockMode::Virtual`
//! pinned so no charge is spun into it) and model time (deltas of
//! `CostModel::charged()`). See `README.md` for the metric definitions.

pub mod harness;
pub mod inputs;
pub mod kv;
pub mod pagerank;
pub mod report;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workloads;
