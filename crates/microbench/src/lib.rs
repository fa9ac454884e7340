//! # gpstream-microbench
//!
//! Micro-benchmarks and machine probes reproducing the paper's Figures 5,
//! 6, 8 and 9:
//!
//! * [`bwprobe`] — gather/scatter bandwidth vs record size, ± non-temporal
//!   hints (Figure 5);
//! * [`overlap`] — computation/memory overlap across the two SMT contexts
//!   (Figure 6);
//! * [`spinwait`] — PAUSE vs MONITOR/MWAIT busy-waiting and dispatch
//!   latencies (Figure 8);
//! * [`kernels`] — LD-ST-COMP, GAT-SCAT-COMP and PROD-CON with the COMP
//!   sweep (Figure 9), each as a stream program plus its regular twin
//!   with verified-identical results.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod bwprobe;
pub mod kernels;
pub mod overlap;
pub mod spinwait;
