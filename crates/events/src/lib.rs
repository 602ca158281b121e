#![deny(missing_docs)]

//! `cta-events`: seeded, dependency-free randomness for the serving
//! fleet's simulated events.
//!
//! * [`DetRng`] — a SplitMix64 generator: tiny state, full 64-bit
//!   output, equal seeds yield equal streams. The chaos engine draws its
//!   scenarios from it.
//! * [`mix64`] — the stateless SplitMix64 finalizer, a pure hash for
//!   effects that must be a deterministic function of their inputs
//!   alone (per-step fault jitter keyed by seed, replica and time).
//!
//! The fleet driver itself needs no event queue: the engine's own
//! sources are kept in order and a tournament tree finds the earliest
//! replica step (see `cta-serve`'s `engine.rs`).
//!
//! # Example
//!
//! ```
//! use cta_events::{mix64, DetRng};
//!
//! let mut a = DetRng::seeded(7);
//! let mut b = DetRng::seeded(7);
//! assert_eq!(a.next_u64(), b.next_u64());
//! assert!((0.0..1.0).contains(&a.next_f64()));
//! assert_eq!(mix64(42), mix64(42));
//! ```

mod rng;

pub use rng::{mix64, DetRng};
