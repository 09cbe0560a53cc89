//! `tempo-runtime` — the networked cluster runtime.
//!
//! This is the "cluster mode" of the evaluation framework (§6.1) made real: the same
//! deterministic [`Protocol`](tempo_kernel::protocol::Protocol) state machines that
//! run under the discrete-event simulator are deployed here as an actual
//! message-passing system — one [`Driver`](tempo_kernel::driver::Driver) thread per
//! replica, fed by `tempo-net` transport I/O threads, messages serialized through the
//! [`Wire`](tempo_net::Wire) codec and shipped over loopback TCP sockets, durable
//! state on a real `FileStore` fsyncing under true concurrency.
//!
//! Two entry points:
//!
//! * [`NetCluster`] — the transport-backed cluster. A
//!   [`RuntimeFactory`] builds each replica (wire a `tempo-store::FileStore` per
//!   process and restarts become kill-thread / reopen-store / rejoin + state
//!   transfer); a [`NemesisSchedule`](tempo_fault::NemesisSchedule) turns the run
//!   into a chaos experiment — the supervisor kills and revives replica threads while
//!   [`ChaosTransport`](tempo_net::ChaosTransport) drops, delays and partitions
//!   frames *under real thread interleaving*; [`ClientSession`]s submit over the
//!   transport with timeout/failover matching the simulator's semantics, and the
//!   recorded [`History`](tempo_fault::History) feeds the same `tempo-fault` checker
//!   the sim runs. See DESIGN.md §7 for the networking model. With a
//!   [`Planet`](tempo_planet::Planet) in [`NetOpts`], the whole deployment runs
//!   across emulated wide-area regions: the same `ChaosTransport` charges every
//!   endpoint its region latency, and quorum views become geographic.
//! * [`run_load`] — the open-loop load driver over a [`NetCluster`]: seeded arrival
//!   schedules from `tempo-load`, thousands of logical sessions over a few sockets,
//!   tail latency measured from intended arrival times (DESIGN.md §8).
//!
//! The crate stays std-only: transports, framing and chaos all come from workspace
//! crates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod load;

pub use cluster::{
    run_workload, ClientSession, NetCluster, NetOpts, RuntimeFactory, RuntimeReport, WorkloadTally,
};
pub use load::{run_load, LoadOpts, LoadReport};
