//! Discrete-event simulation kernel for the Mellow Writes reproduction.
//!
//! This crate is deliberately independent of any memory-system concept: it
//! provides the *mechanics* every timed component in the simulator shares.
//!
//! - [`SimTime`] / [`Duration`] — picosecond-resolution simulation time.
//! - [`CoreCycles`] / [`MemCycles`] — cycle counts tagged with their clock
//!   domain, so core-cycle, memory-cycle, and picosecond quantities can
//!   only meet through explicit conversions (enforced by `mellow-lint`).
//! - [`Clock`] — a fixed-frequency clock domain whose period converts the
//!   cycle types to and from [`SimTime`] (the simulated system mixes a
//!   2 GHz core domain with a 400 MHz memory domain).
//! - [`stats`] — busy-time accumulators and histograms from which the
//!   paper's utilization and latency figures are computed.
//! - [`DetRng`] — a small deterministic RNG so that identical seeds always
//!   reproduce identical simulations.
//! - [`json`] — a dependency-free JSON kernel used to persist experiment
//!   results as line-oriented artifacts.
//!
//! # Examples
//!
//! ```
//! use mellow_engine::{Clock, MemCycles, SimTime};
//!
//! let mem_clock = Clock::from_mhz(400);
//! // A 60-cycle write pulse issued at time zero ends at 150 ns.
//! let done = MemCycles::new(60).edge(&mem_clock);
//! assert_eq!(done, SimTime::from_ns(150));
//! assert_eq!(MemCycles::containing(done, &mem_clock), MemCycles::new(60));
//! ```

mod clock;
pub mod json;
mod rng;
pub mod stats;
mod time;

pub use clock::Clock;
pub use rng::DetRng;
pub use time::{CoreCycles, Duration, MemCycles, SimTime};
