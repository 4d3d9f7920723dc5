//! # bda-sim — the adaptive testbed (paper §3)
//!
//! A discrete-event simulation engine mirroring the paper's testbed
//! architecture (Fig. 3):
//!
//! * the broadcast server — a built broadcast system
//!   ([`bda_core::DynSystem`]) for a frozen program, or a
//!   [`server::VersionedServer`] replaying an update stream for a
//!   churning one;
//! * [`reqgen::RequestGenerator`] — generates requests "periodically based
//!   on certain distribution … the request generation process follows
//!   exponential distribution", drawing keys from a
//!   [`bda_datagen::QueryWorkload`];
//! * [`engine`] — the event queue: request arrivals and per-client wake-ups
//!   interleave in global time order, each client advancing through its
//!   access protocol one bucket read / doze at a time. An [`Engine`] (or a
//!   [`ShardedEngine`] over `N` cores) is built over the air its clients
//!   see — a [`bda_core::ChannelModel`] and a [`bda_core::RetryPolicy`] —
//!   and runs batches with [`Engine::run_batch`];
//! * [`results::ResultHandler`] — accumulates access-time and tuning-time
//!   statistics;
//! * [`accuracy::AccuracyController`] — terminates the simulation only once
//!   the requested confidence level and accuracy are achieved (Table 1:
//!   confidence 0.99, accuracy 0.01), using a Student-t confidence
//!   interval exactly as defined in the paper's footnote 1;
//! * [`simulator::Simulator`] — the coordinator tying all of the above
//!   together (init → start → simulate rounds → end);
//! * [`schemes::SchemeKind`] — the scheme registry: which access method
//!   the server builds, on which layout, frozen or churning.
//!
//! The engine drives the *same* protocol machines as the fast direct
//! walker (`bda_core::machine::run_machine`), so event-driven and one-shot
//! execution provably agree — the integration suite asserts it.

pub mod accuracy;
pub mod engine;
pub mod reqgen;
pub mod results;
pub mod schemes;
pub mod server;
pub mod sharded;
pub mod simulator;
pub mod stats;
pub mod timeline;
pub mod updates;

pub use accuracy::AccuracyController;
pub use engine::{CompletedRequest, Engine, EngineStats};
pub use reqgen::RequestGenerator;
pub use results::ResultHandler;
pub use schemes::{Layout, SchemeKind, SchemeVisitor};
pub use server::{StripedVersionedServer, VersionedServer};
pub use sharded::{run_requests_partitioned, ShardedEngine};
pub use simulator::{Driver, SimConfig, SimReport, Simulator};
pub use stats::{student_t_quantile, Summary, Welford};
pub use timeline::{append_scheme_timeline, perfetto_trace, replay_spans, SpanSegment};
pub use updates::{UpdateOp, UpdateSpec, UpdateStream};
