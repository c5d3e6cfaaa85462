//! A fixed-work benchmark of the davpse stack. Each run drives one
//! workload with two closed-loop clients against an in-process server,
//! checks every output, and prints one JSON result line: end-to-end
//! metrics untraced, per-layer metrics when traced.

pub mod decor;
pub mod ecce;
pub mod harness;
pub mod replicated;
pub mod stats;
pub mod sys;
pub mod trace;
