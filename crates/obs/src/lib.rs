//! # bda-obs — the observability layer
//!
//! The paper's entire evaluation is two scalar averages — access time and
//! tuning time. Everything added since (retries, abandonment, stale
//! restarts, version skews) shows up only as bespoke counters, with no way
//! to ask *where* a walk's bytes actually went or what the tail looks
//! like. This crate is the cross-cutting answer, designed around one hard
//! constraint: **instrumentation must cost nothing when it is off.**
//!
//! * [`Recorder`] — the statically-dispatched span sink. Walkers are
//!   generic over a `Recorder` whose associated `const ENABLED` gates
//!   every instrumentation site, so with the default [`NoopRecorder`] the
//!   instrumented hot paths compile to the same code as before the layer
//!   existed (the benchmark's `obs.observed_over_noop` metric prices
//!   turning it on).
//! * [`Phase`] — the six-way taxonomy every walk step is attributed to,
//!   decomposing the paper's two metrics per phase per scheme.
//! * [`Histogram`] — log-bucketed percentile histogram (p50/p90/p99/p99.9)
//!   with associatively mergeable bins; one implementation shared by the
//!   simulator, the engine and the exporters.
//! * [`Gauge`]/[`GaugeSet`] — engine-level occupancy gauges sampled at
//!   wakeup boundaries.
//! * [`MetricsHub`] — the mergeable aggregate everything drains into.
//! * [`TimeSeries`] — time-resolved telemetry: fixed-width tick windows
//!   (completions, wake batches, in-flight high-water, corrupt/stale
//!   events, per-phase tick totals, busy ticks) whose window sums equal
//!   the end-of-run aggregates exactly and merge window-by-window across
//!   shards.
//! * [`export`] — a compact JSON schema (`bda-obs/v1`), a Prometheus text
//!   renderer, and a dependency-free validator for the JSON schema.
//! * [`tracefmt`] — a Chrome-trace-event/Perfetto exporter
//!   (`bda-obs/trace/v1`): per-shard counter lanes from a [`TimeSeries`]
//!   plus seed-sampled per-request span timelines, all in the tick
//!   domain.
//! * [`progress`] — leveled progress events for long-running harnesses,
//!   so `--quiet` can actually be silent.
//!
//! The crate is deliberately dependency-free (times are raw `u64` byte
//! counts, not `bda_core::Ticks`) so it sits *below* `bda-core` in the
//! workspace DAG and every layer can use it.

pub mod export;
pub mod gauges;
pub mod histogram;
pub mod metrics;
pub mod phase;
pub mod progress;
pub mod recorder;
pub mod timeseries;
pub mod tracefmt;

pub use gauges::{Gauge, GaugeSet, GaugeStat};
pub use histogram::Histogram;
pub use metrics::MetricsHub;
pub use phase::{BucketKind, Phase};
pub use progress::{NullProgress, ProgressSink, QuietProgress, Severity, StderrProgress};
pub use recorder::{NoopRecorder, PhaseSpans, PhaseTotal, Recorder, SpanRecorder};
pub use timeseries::{Completion, TimeSeries, WindowSpec, WindowStats};
pub use tracefmt::{sample_indices, sample_priority, validate_trace, TraceBuilder, TRACE_SCHEMA};
