//! # hp-sdp — software data plane engines
//!
//! The evaluation substrate tying everything together: a discrete-event
//! model of the full Fig. 2 receive path, in two flavors:
//!
//! * **Spinning** — the state-of-the-art SDP baseline: cores iterate over
//!   their queues' doorbells at full tilt, paying cache misses on the
//!   lines producers touched; scale-out partitions or scale-up sharing
//!   with CAS-synchronized dequeues.
//! * **HyperPlane** — cores run Algorithm 1's QWAIT loop against the
//!   shared (or partitioned) [`hp_core::HyperPlaneDevice`], halting when
//!   no queue is ready and waking on monitoring-set snoop hits; optional
//!   C1 power-optimized halting and an optional software ready-set
//!   iterator (Fig. 13).
//!
//! Telemetry covers throughput, end-to-end latency distributions, a
//! useful/spin IPC breakdown (Fig. 11a), an SMT co-runner model
//! (Fig. 11b), and an activity-proportional power model (Fig. 12).
//!
//! ```
//! use hp_sdp::config::{ExperimentConfig, Notifier};
//! use hp_sdp::runner;
//! use hp_traffic::shape::TrafficShape;
//! use hp_workloads::service::WorkloadKind;
//!
//! let mut cfg = ExperimentConfig::new(
//!     WorkloadKind::PacketEncap,
//!     TrafficShape::SingleQueue,
//!     64,
//! )
//! .with_notifier(Notifier::hyperplane());
//! cfg.target_completions = 500; // keep the doctest quick
//! let result = runner::peak_throughput(&cfg);
//! assert!(result.throughput_mtps() > 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod config;
pub mod engine;
pub mod metrics;
pub mod par_engine;
pub mod power;
pub mod result;
pub mod runner;
pub mod stimulus;
pub mod telemetry;

pub use config::{ConfigError, ExperimentConfig, Load, MicroarchConfig, Notifier};
pub use engine::Engine;
pub use metrics::{WindowSample, WindowedMetrics};
pub use power::PowerModel;
pub use result::{ExperimentResult, FaultReport};
pub use telemetry::{CoreTelemetry, SmtCoRunner};
