//! Workspace-wide instrumentation: spans, metrics, convergence traces.
//!
//! Every layer of this workspace used to invent its own stats struct
//! (`NewtonStats`, `FactorStats`, …) and mostly drop it on
//! the floor. `obskit` replaces the printf archaeology with one small,
//! dependency-free substrate:
//!
//! * **Hierarchical spans** — `sweep → job → analysis → time-step →
//!   newton-iter → factor/solve` — with monotonic-clock timings and
//!   structured attributes. Instrumentation sites call the free
//!   functions ([`span`], [`point`], [`counter_add`], [`observe`]);
//!   when no recorder is installed they cost one thread-local load and
//!   a branch, and record nothing.
//! * **A metrics registry** ([`MetricsRegistry`]) of named counters and
//!   histograms that unifies the per-layer stats, plus [`RunStats`] —
//!   the shared accept/reject/Newton/factorisation summary that
//!   `transim`, `mpde` and `wampde` all alias.
//! * **Two sinks** on [`CollectingRecorder`]: a Chrome `trace_event`
//!   JSON exporter (loadable in `chrome://tracing` / Perfetto) and a
//!   JSONL metrics/convergence dump (per-step `h`, LTE, rejection
//!   reason; per-iter residual norm, damping λ, fresh/reused
//!   factorisation).
//!
//! # Enabling a trace
//!
//! Recording is scoped and thread-local: install a recorder with
//! [`install`], and propagate it to worker threads by capturing
//! [`current`] before spawning and calling [`install_handle`] inside
//! each worker (this also parents the worker's spans correctly).
//!
//! ```
//! use std::sync::Arc;
//!
//! let rec = Arc::new(obskit::CollectingRecorder::new());
//! {
//!     let _g = obskit::install(rec.clone());
//!     let _sweep = obskit::span("sweep");
//!     obskit::counter_add("sweep.jobs", 4);
//! }
//! assert_eq!(rec.counter("sweep.jobs"), 4);
//! let chrome_json = rec.to_chrome_trace();
//! assert!(chrome_json.contains("\"traceEvents\""));
//! ```
//!
//! Determinism contract: instrumentation must never perturb numerics.
//! Nothing in this crate feeds back into solver state; the integration
//! tests in `crates/bench` assert byte-identical numeric artifacts for
//! traced and untraced sweeps.

mod collect;
mod json;
mod metrics;
mod recorder;
mod tls;

pub use collect::{CollectingRecorder, PointRecord, SpanRecord};
pub use metrics::{Histogram, MetricsRegistry, RunStats};
pub use recorder::{AttrValue, NoopRecorder, Recorder, SpanId};
pub use tls::{
    counter_add, current, enabled, install, install_handle, observe, point, span, span_with,
    InstallGuard, Span, TraceHandle,
};
