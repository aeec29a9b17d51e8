//! Detectable recoverable shared objects on simulated persistent memory.
//!
//! This crate implements the algorithmic contribution of Li & Golab,
//! *Detectable Sequential Specifications for Recoverable Shared Objects*
//! (DISC 2021):
//!
//! * [`DssQueue`] — the paper's §3 **DSS queue**: a lock-free, strictly
//!   linearizable, detectable recoverable MPMC FIFO queue derived from the
//!   Michael–Scott queue and Friedman et al.'s durable queue. Both the
//!   centralized recovery procedure (Appendix A, Figure 6) and the
//!   independent per-thread recovery variant (§3.3) are provided.
//! * [`DssStack`] — the same DSS recipe applied to a Treiber stack,
//!   showing the methodology generalizes beyond the paper's queue.
//! * [`DetectableRegister`] — a bespoke implementation of
//!   `D⟨read/write register⟩`, the object of the paper's Figure 2.
//! * [`DetectableCas`] — a bespoke implementation of `D⟨CAS⟩`; together
//!   with the register it demonstrates the application-managed nesting
//!   story of §2.2 ("`D⟨queue⟩` can be constructed using implementations of
//!   `D⟨read/write register⟩` and `D⟨CAS⟩`").
//! * [`DetectableMap`] — the same recipe applied to a bucket-chained hash
//!   map with crash-atomic growth: the "new object family" built on the
//!   extracted [`DetectableCore`] skeleton.
//! * [`Universal`] — a recoverable, detectable universal construction in
//!   the style of Herlihy (1991) / Berryhill et al. (2016), yielding
//!   `D⟨T⟩` for *any* [`SequentialSpec`](dss_spec::SequentialSpec) (§2.2's
//!   computability remark).
//!
//! Everything runs against the [`dss_pmem`] simulator: explicit flushes,
//! volatile-cache crash semantics, and tag bits borrowed from pointers'
//! high bits exactly as the paper describes.
//!
//! # Quick start
//!
//! ```
//! use dss_core::{DssQueue, Resolved, ResolvedOp};
//! use dss_spec::types::QueueResp;
//!
//! let q = DssQueue::new(2, 64); // 2 thread slots, 64 nodes per thread
//! // Each thread claims a slot from the persistent registry:
//! let h0 = q.register_thread().unwrap();
//! let h1 = q.register_thread().unwrap();
//! // Thread 0 performs a detectable enqueue:
//! q.prep_enqueue(h0, 42).unwrap();
//! q.exec_enqueue(h0);
//! // Thread 0 can ask what happened (e.g. after a crash):
//! assert_eq!(
//!     q.resolve(h0),
//!     dss_core::Resolved {
//!         op: Some(dss_core::ResolvedOp::Enqueue(42)),
//!         resp: Some(QueueResp::Ok),
//!     }
//! );
//! // Thread 1 dequeues it (non-detectably):
//! assert_eq!(q.dequeue(h1), QueueResp::Value(42));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod binding;
mod cas;
mod detect;
mod map;
mod queue;
mod register;
mod stack;
mod universal;

pub use cas::{DetectableCas, ResolvedCas, KIND_DETECTABLE_CAS};
pub use detect::DetectableCore;
pub use map::{DetectableMap, ResolvedMap, KIND_DETECTABLE_MAP, MAX_LEVELS};
pub use queue::{
    CombiningQueue, DssQueue, QueueFull, ReplicatedQueue, Resolved, ResolvedOp, DEFAULT_REPLICAS,
    KIND_DSS_QUEUE, KIND_DSS_QUEUE_COMBINING, KIND_DSS_QUEUE_REPLICATED, REPLICATED_LOG_CAP,
};
pub use register::{DetectableRegister, KIND_DETECTABLE_REGISTER};
pub use stack::{DssStack, StackFull, StackResolved, StackResolvedOp, KIND_DSS_STACK};
pub use universal::{OpWords, UniResolved, Universal, KIND_UNIVERSAL};
