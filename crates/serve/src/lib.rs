//! `nnq-serve` — the serving layer: a long-running server that accepts
//! concurrent kNN / radius requests over a simple length-prefixed TCP
//! wire protocol and answers them through the repo's batch query engine.
//!
//! The design goal is the paper's cost model under concurrency **without
//! giving up the repo's accounting contract**: every response carries the
//! query's `logical_reads` (node accesses — the paper's "pages
//! accessed"), and results are bit-identical to a sequential
//! [`knn`](nnq_core) invocation regardless of batch size, worker count,
//! or interleaving across connections.
//!
//! Pieces:
//! - [`protocol`] — the framed wire format (requests, responses, limits);
//! - [`inbox`] — bounded admission queue whose batcher takes what is
//!   queued when it is free (overload fast-rejects, it never queues
//!   unboundedly);
//! - [`server`] — the serve loop: framed readers, Hilbert-scheduled
//!   batch execution over a per-batch snapshot, graceful drain;
//! - [`client`] — a small blocking client for tests, the CLI, and the
//!   load generator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod inbox;
pub mod protocol;
pub mod server;

pub use client::Client;
pub use inbox::{Admit, Inbox};
pub use protocol::{Hit, ProtocolError, Request, Response, MAX_K, MAX_RESULT_HITS};
pub use server::{serve, Engine, ServeConfig, ServeReport, RETRY_AFTER_US};
