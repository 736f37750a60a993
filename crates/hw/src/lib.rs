//! # paratick-hw — simulated timer and I/O hardware
//!
//! Device models for the virtualized-x86 simulation. Each model captures
//! the *architectural contract* the paper's mechanisms depend on, not the
//! gate-level behaviour:
//!
//! * [`tsc`] — the per-CPU time stamp counter: an invariant, constant-rate
//!   cycle counter readable without trapping.
//! * [`deadline`] — the `TSC_DEADLINE` MSR: the one-shot timer interface
//!   Linux uses for high-resolution ticks. In a VM every write to it traps
//!   (the central overhead source in the paper, §3).
//! * [`lapic`] — the local APIC's interrupt request/in-service state:
//!   pending vector bitmap with fixed-priority delivery.
//! * [`oneshot`] — the LAPIC initial-count oneshot timer: the coarser
//!   fallback backend the guest demotes to when fault injection makes
//!   the TSC-deadline path unreliable.
//! * [`iodev`] — block-device latency models (HDD / SATA SSD / NVMe) with
//!   submission queues and completion interrupts, plus a simple NIC model.
//!
//! All models are pure state machines over [`paratick_sim::SimTime`]; they
//! do not own event-queue entries. The system engine (in the `paratick`
//! core crate) asks each device for its next deadline and schedules the
//! corresponding events.

pub mod deadline;
pub mod iodev;
pub mod lapic;
pub mod oneshot;
pub mod tsc;

pub use deadline::{DeadlineWriteEffect, TscDeadline};
pub use iodev::{BlockDevice, DeviceKind, IoOp, IoRequest};
pub use lapic::{Lapic, Vector};
pub use oneshot::LapicOneshot;
pub use tsc::Tsc;
