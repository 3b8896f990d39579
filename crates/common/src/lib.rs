//! Shared foundation types for the Jiffy elastic far-memory system.
//!
//! This crate holds the vocabulary used by every other Jiffy crate:
//!
//! - [`id`] — strongly-typed identifiers (jobs, blocks, memory servers).
//! - [`error`] — the [`JiffyError`] error type and [`Result`] alias.
//! - [`clock`] — the [`Clock`] abstraction that lets the production system
//!   run on wall-clock time while the discrete-event simulator replays
//!   hours of trace in milliseconds of real time.
//! - [`config`] — system-wide tunables (block size, lease duration,
//!   repartition thresholds) with the paper's defaults.
//! - [`size`] — byte-size helpers (`KB`/`MB`/`GB` constants, formatting).
//!
//! [`JiffyError`]: error::JiffyError
//! [`Result`]: error::Result
//! [`Clock`]: clock::Clock

pub mod clock;
pub mod config;
pub mod error;
pub mod id;
pub mod size;

pub use clock::{Clock, ManualClock, SystemClock};
pub use config::{
    call_timeout, rpc_client_reactors, rpc_egress_cap, rpc_workers, set_call_timeout,
    set_rpc_egress_cap, set_rpc_workers, JiffyConfig, QosConfig, DEFAULT_CALL_TIMEOUT,
};
pub use error::{JiffyError, Result};
pub use id::{BlockId, JobId, ServerId, TenantId};
