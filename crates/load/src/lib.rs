//! `tempo-load` — open-loop load generation for the real (networked) stack.
//!
//! The paper's headline figures (6 and 7) are measured under sustained multi-client
//! load across wide-area regions. This crate provides the generator side of that
//! measurement, independent of any transport or runtime:
//!
//! * [`Arrivals`] — open-loop arrival schedules: fixed-rate or Poisson, seeded and
//!   deterministic, emitting *intended* submission times in microseconds. Latency is
//!   measured from the intended time, not the actual send, so queueing delay caused
//!   by an overloaded system is charged to the system rather than silently dropped
//!   (the coordinated-omission stance; see DESIGN.md §8).
//! * [`Mix`] / [`ZipfMix`] / [`YcsbTMix`] — what each command does: Zipf-distributed
//!   keys with an optional hot-key override (the microbenchmark's conflict knob) and
//!   YCSB-style read/write ratios, plus the YCSB+T multi-shard transaction mix of
//!   Figure 9 (two distinct (shard, key) accesses per command), with the request
//!   identifier supplied by the caller so a driver can encode session slots into it.
//!
//! The pieces that *apply* this load to a cluster live in `tempo-runtime`
//! (`LoadDriver`) and the WAN emulation lives in `tempo-net` (`ChaosTransport`);
//! the streaming histograms the driver records into are
//! `tempo_kernel::metrics::LogHistogram`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arrivals;
mod mix;

pub use arrivals::Arrivals;
pub use mix::{Mix, YcsbTMix, ZipfMix};
