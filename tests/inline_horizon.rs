//! Inline successor core steps are invisible. The pump runs a core's next
//! step in place, without a wheel round trip, only while that step is
//! strictly before the *horizon*: the wheel's next event, the sync-window
//! boundary, the next metrics-window close and the next chaos swap. Runs
//! that place those clip points differently therefore inline different
//! steps, and must still agree on the canonical digest and on every
//! kernel-profile row, counts and attributed cycles alike. Each family
//! below also checks that the clip points really moved the inline count,
//! so no comparison is vacuous.

use hyperplane::prelude::*;
use hyperplane::sdp::config::SyncWindow;
use hyperplane::sdp::runner;
use hyperplane::sim::chaos::ChaosSchedule;
use hyperplane::sim::faults::FaultPlan;

/// Spinning cores sweeping 250 mostly empty queues under single-queue
/// traffic: long runs of fruitless polls, the inline path's main load.
fn spinning_sq() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::SingleQueue, 250)
        .with_cores(2, 2)
        .with_seed(0x1A11_5E7A);
    cfg.target_completions = 1_500;
    cfg
}

/// HyperPlane cores in two sharing groups of two under balanced traffic
/// at 70% load: halts, QWAIT steps, and sibling wake-ups scheduled from
/// inside a step, which must pull the horizon in.
fn hyperplane_fb() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 64)
        .with_cores(4, 2)
        .with_notifier(Notifier::hyperplane())
        .with_seed(0x1A11_5E7B);
    cfg.target_completions = 1_500;
    let rate = cfg.capacity_estimate_per_core() * 4.0 * 0.7;
    cfg.with_load(Load::RatePerSec(rate))
}

/// HyperPlane cores that never halt: an idle core runs background-task
/// chunks, a chain of steps the pump runs inline, until a QWAIT finds
/// work. In-order mode then schedules the deferred `Reconsider` at the
/// very instant of the core's next step, from inside the step: the
/// horizon must be recomputed, and the older `Reconsider` fires first.
fn hyperplane_background() -> ExperimentConfig {
    let mut cfg = hyperplane_fb();
    cfg.in_order = true;
    cfg.background_task = true;
    cfg
}

/// Straggler faults: each core step may stall, and the stall's retry is
/// itself a step the pump may run inline.
fn with_stragglers(cfg: ExperimentConfig) -> ExperimentConfig {
    cfg.with_faults(FaultPlan::parse("straggler=0.05,stall_cycles=700").unwrap())
}

/// A chaos schedule whose phases install the base fault plan unchanged:
/// every phase edge is a chaos swap that clips the horizon, and none
/// changes what the fault plane decides.
fn with_noop_phases(cfg: ExperimentConfig) -> ExperimentConfig {
    let plan = cfg.faults.clone();
    let mut chaos = ChaosSchedule::none();
    for k in 1..200u64 {
        chaos = chaos.with_phase(k * 9_973, k * 9_973 + 3_001, plan.clone());
    }
    cfg.with_chaos(chaos)
}

/// Straggler faults under a chaos schedule that really swaps plans: the
/// stall rate alternates between phases, so a step run past a phase edge
/// would draw from the wrong plan.
fn with_straggler_phases(cfg: ExperimentConfig) -> ExperimentConfig {
    let storm = FaultPlan::parse("straggler=0.4,stall_cycles=1500").unwrap();
    let mut chaos = ChaosSchedule::none();
    for k in 1..200u64 {
        chaos = chaos.with_phase(k * 10_007, k * 10_007 + 2_503, storm.clone());
    }
    with_stragglers(cfg).with_chaos(chaos)
}

type Profile = Vec<(&'static str, u64, u64)>;

/// One serial run's comparable outputs.
struct Outcome {
    digest: Vec<u64>,
    rows: Profile,
    metrics: String,
    inlined: u64,
}

fn run(cfg: ExperimentConfig) -> Outcome {
    let r = runner::run(cfg.with_par_workers(1));
    let p = r.kernel_profile().expect("profiling is always collected");
    Outcome {
        digest: r.digest(),
        rows: p.rows(),
        metrics: r.metrics_jsonl(),
        inlined: p.inlined(),
    }
}

/// Asserts every variant of `base` matches it on digest and profile
/// rows, that every variant sampling metrics windows wrote the same
/// JSONL, and that at least one variant inlined a different number of
/// steps than the base did.
fn assert_clip_invariant(
    label: &str,
    base: ExperimentConfig,
    variants: &[(&str, ExperimentConfig)],
) {
    let base = run(base);
    assert!(base.inlined > 0, "{label}: no step ran inline");
    let mut moved = false;
    let mut metrics: Option<(&str, String)> = None;
    for (name, cfg) in variants {
        let v = run(cfg.clone());
        assert_eq!(base.digest, v.digest, "{label}/{name}: digest diverged");
        assert_eq!(base.rows, v.rows, "{label}/{name}: kernel profile diverged");
        moved |= v.inlined != base.inlined;
        if v.metrics.is_empty() {
            continue;
        }
        match &metrics {
            None => metrics = Some((name, v.metrics)),
            Some((first, m)) => assert!(
                *m == v.metrics,
                "{label}/{name}: metrics JSONL diverged from {first}"
            ),
        }
    }
    assert!(moved, "{label}: no variant moved the inline horizon");
}

/// The families each equivalence test runs: a spinning and a HyperPlane
/// config, each plain, with straggler stalls, and with stragglers under
/// plan-swapping chaos phases, plus the background-task HyperPlane config
/// under chaos phases.
fn families() -> [(&'static str, ExperimentConfig); 7] {
    [
        ("spinning-sq", spinning_sq()),
        ("hyperplane-fb", hyperplane_fb()),
        ("spinning-sq+stragglers", with_stragglers(spinning_sq())),
        ("hyperplane-fb+stragglers", with_stragglers(hyperplane_fb())),
        ("spinning-sq+chaos", with_straggler_phases(spinning_sq())),
        (
            "hyperplane-fb+chaos",
            with_straggler_phases(hyperplane_fb()),
        ),
        (
            "hyperplane-in-order-background",
            with_straggler_phases(hyperplane_background()),
        ),
    ]
}

/// Metrics windows, extra no-op chaos phases and `batch_pop` clip the
/// horizon (or, for `batch_pop`, gate it on the same-instant run) without
/// touching the simulation. The two metrics variants clip differently
/// from each other too (one also carries the no-op phases, and its
/// windows close at the same instants), so their JSONL must match.
#[test]
fn observer_and_chaos_clip_points_are_invisible() {
    for (label, base) in families() {
        let no_batch = |mut cfg: ExperimentConfig| {
            cfg.batch_pop = false;
            cfg
        };
        let mut variants = vec![
            ("metrics", base.clone().with_metrics_window(5_000)),
            ("no-batch-pop", no_batch(base.clone())),
            (
                "metrics+no-batch-pop",
                no_batch(base.clone().with_metrics_window(5_000)),
            ),
        ];
        if base.chaos == ChaosSchedule::none() {
            variants.push(("chaos-phases", with_noop_phases(base.clone())));
            variants.push((
                "metrics+chaos-phases",
                with_noop_phases(base.clone().with_metrics_window(5_000)),
            ));
        }
        assert_clip_invariant(label, base, &variants);
    }
}

/// Window boundaries clip the horizon too. Run control reacts at the
/// first boundary past its threshold, so the windows must not decide
/// when the run stops: the completion target is out of reach and the run
/// ends at `max_cycles`, a multiple of the tiny fixed window and a
/// boundary the lookahead schedule never skips.
#[test]
fn sync_window_clip_points_are_invisible() {
    const TINY: u64 = 1_000;
    let bounded = |mut cfg: ExperimentConfig| {
        cfg.target_completions = u64::MAX / 8;
        cfg.max_cycles = 1_500 * TINY;
        cfg
    };
    for (label, base) in families() {
        let base = bounded(base);
        assert_eq!(base.sync_window, SyncWindow::Lookahead);
        let tiny = base.clone().with_sync_window(TINY);
        let variants = [("fixed-tiny", tiny.clone())];
        assert_clip_invariant(label, base, &variants);
        // No step past the final boundary ran inline: the run ends
        // strictly before it, as the wheel-only pump would.
        let end = runner::run(tiny).end.since_start().count();
        assert!(
            end < 1_500 * TINY,
            "{label}: a step ran past the last boundary"
        );
    }
}
