//! The repo benchmark: Tempo on `NetCluster` (loopback TCP, one thread per replica),
//! driven open-loop by `run_load`, with per-layer spans recorded by wrappers around
//! the public interface of each layer. `src/main.rs` is the command; this library
//! holds the parts its tests reach.

pub mod measure;
pub mod probe;
pub mod spans;
