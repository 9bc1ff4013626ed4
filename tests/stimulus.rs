//! The engine's stimulus against its specification, at 99.9% confidence:
//! each sharing group's arrival rate, each queue's share of its group's
//! arrivals (χ²), and the mean and squared coefficient of variation of
//! the per-item service draw. Every check is two-sided at the 99.9% level
//! and every draw is seeded, so a correct stimulus passes deterministically.
//!
//! The specification is taken from the config alone — the offered rate,
//! the shape weights (or, for flow traffic, the load shares its flow→queue
//! steering implies), the queue partition, and the service distribution —
//! never from the [`Stimulus`] under test.

use hyperplane::prelude::*;
use hyperplane::sdp::config::TrafficSource;
use hyperplane::sdp::stimulus::Stimulus;
use hyperplane::sim::rng::{Distribution, RngFactory};
use hyperplane::traffic::flows::FlowTrafficGenerator;

/// Two-sided 99.9% standard-normal quantile.
const Z: f64 = 3.2905;
/// Arrivals drawn per group.
const ARRIVALS: u64 = 50_000;
/// Service demands drawn per distribution.
const SERVICES: u64 = 200_000;

/// Upper 99.9% quantile of χ² with `df` degrees of freedom
/// (Wilson–Hilferty; within 0.5% of the exact quantile for `df >= 3`).
fn chi2_999(df: usize) -> f64 {
    let h = 2.0 / (9.0 * df as f64);
    df as f64 * (1.0 - h + 3.0902 * h.sqrt()).powi(3)
}

/// Checks every group's arrival stream against the config's offered
/// rate, traffic weights and queue partition.
fn check_arrivals(label: &str, cfg: &ExperimentConfig) {
    let Load::RatePerSec(rate) = cfg.load else {
        panic!("{label}: the specification needs an explicit offered rate");
    };
    let weights = match cfg.traffic {
        TrafficSource::Shape => cfg.shape.weights(cfg.queues),
        TrafficSource::Flows { flows, zipf_s } => {
            let rng = RngFactory::new(0).stream(0);
            FlowTrafficGenerator::new(flows, zipf_s, cfg.queues, rate, Clock::default(), rng)
                .queue_load_shares(cfg.queues)
        }
    };
    let total_mass: f64 = weights.iter().sum();
    let group_of = cfg.queue_groups();
    let stimulus = Stimulus::new(cfg, &group_of, &vec![true; cfg.groups()]);
    for g in 0..cfg.groups() {
        let mass: f64 = (0..weights.len())
            .filter(|&q| group_of[q] == g)
            .map(|q| weights[q])
            .sum();
        if mass == 0.0 {
            assert!(
                !stimulus.has_stream(g),
                "{label}: massless group {g} has a stream"
            );
            continue;
        }
        let mut gap_sum = 0.0;
        let mut counts = vec![0u64; weights.len()];
        for k in 0..ARRIVALS {
            let a = stimulus
                .arrival(g, k)
                .expect("group with mass has a stream");
            gap_sum += a.gap.count() as f64;
            counts[a.queue.0 as usize] += 1;
        }

        // Rate: exponential gaps at the group's share of the offered rate,
        // so the standard error of the mean gap is the mean over √n.
        let spec_gap = cfg.machine.clock.ghz() * 1e9 / (rate * mass / total_mass);
        let mean_gap = gap_sum / ARRIVALS as f64;
        let bound = Z * spec_gap / (ARRIVALS as f64).sqrt();
        assert!(
            (mean_gap - spec_gap).abs() <= bound,
            "{label}: group {g} mean gap {mean_gap:.1} cycles, spec {spec_gap:.1} ± {bound:.1}"
        );

        // Shares: arrivals land only on the group's weighted queues, in
        // proportion to their weights. Queues expecting fewer than five
        // arrivals are pooled into one χ² cell.
        let (mut chi2, mut cells, mut pooled_obs, mut pooled_exp) = (0.0, 0usize, 0.0, 0.0);
        for (q, &n) in counts.iter().enumerate() {
            if group_of[q] != g || weights[q] == 0.0 {
                assert_eq!(n, 0, "{label}: group {g} sent arrivals to queue {q}");
                continue;
            }
            let expect = ARRIVALS as f64 * weights[q] / mass;
            if expect < 5.0 {
                pooled_obs += n as f64;
                pooled_exp += expect;
            } else {
                chi2 += (n as f64 - expect).powi(2) / expect;
                cells += 1;
            }
        }
        if pooled_exp > 0.0 {
            chi2 += (pooled_obs - pooled_exp).powi(2) / pooled_exp;
            cells += 1;
        }
        if cells > 1 {
            let crit = chi2_999(cells - 1);
            assert!(
                chi2 <= crit,
                "{label}: group {g} queue shares χ² {chi2:.1} > {crit:.1} ({} dof)",
                cells - 1
            );
        }
    }
}

/// Checks the service draw's mean and squared coefficient of variation
/// against `dist`. The standard errors come from the sample's own
/// influence functions (delta method), so they hold for any distribution
/// with finite fourth moment.
fn check_service(dist: Distribution) {
    let mut cfg = ExperimentConfig::new(WorkloadKind::CryptoForward, TrafficShape::SingleQueue, 1);
    cfg.service_dist = dist;
    let stimulus = Stimulus::new(&cfg, &cfg.queue_groups(), &[true]);
    let xs: Vec<f64> = (0..SERVICES)
        .map(|id| stimulus.service(id).count() as f64)
        .collect();
    let n = xs.len() as f64;
    let m = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n;
    let scv = var / (m * m);
    let mean_se = var.sqrt() / n.sqrt();
    let scv_influence =
        |x: f64| ((x - m).powi(2) - var) / (m * m) - 2.0 * var * (x - m) / m.powi(3);
    let scv_se = (xs.iter().map(|&x| scv_influence(x).powi(2)).sum::<f64>() / n).sqrt() / n.sqrt();

    // Demands are whole cycles: allow one cycle of rounding on the mean.
    let spec_mean = cfg.workload.mean_service_us() * cfg.machine.clock.ghz() * 1e3;
    assert!(
        (m - spec_mean).abs() <= Z * mean_se + 1.0,
        "{dist:?}: mean {m:.1} cycles, spec {spec_mean:.1} ± {:.1}",
        Z * mean_se
    );
    assert!(
        (scv - dist.scv()).abs() <= Z * scv_se + 1e-6,
        "{dist:?}: squared CV {scv:.4}, spec {} ± {:.4}",
        dist.scv(),
        Z * scv_se
    );
}

#[test]
fn single_queue_stimulus_matches_its_specification() {
    // Four groups, one of which owns queue 0 and all of the traffic.
    let cfg = ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::SingleQueue, 64)
        .with_cores(4, 1)
        .with_load(Load::RatePerSec(1e6));
    check_arrivals("sq", &cfg);
}

#[test]
fn imbalanced_concentrated_stimulus_matches_its_specification() {
    let mut cfg = ExperimentConfig::new(
        WorkloadKind::PacketEncap,
        TrafficShape::ProportionallyConcentrated,
        400,
    )
    .with_cores(4, 1)
    .with_load(Load::RatePerSec(2e6));
    cfg.imbalance = 0.1;
    check_arrivals("pc/4 groups/imbalance 0.1", &cfg);
}

#[test]
fn flow_stimulus_matches_its_steering_shares() {
    let mut cfg = ExperimentConfig::new(WorkloadKind::PacketEncap, TrafficShape::FullyBalanced, 64)
        .with_load(Load::RatePerSec(1e6));
    cfg.traffic = TrafficSource::Flows {
        flows: 2_000,
        zipf_s: 1.1,
    };
    check_arrivals("flows", &cfg);
}

#[test]
fn service_draw_matches_its_distribution() {
    for dist in [
        Distribution::Exponential,
        Distribution::Constant,
        Distribution::HyperExp { cv: 2.0 },
    ] {
        check_service(dist);
    }
}
