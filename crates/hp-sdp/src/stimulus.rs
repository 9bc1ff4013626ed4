//! The experiment's stimulus: which queue each arrival targets, when it
//! arrives, and how much work it carries (DESIGN.md §18).
//!
//! Every draw is a pure function of `(seed, stream, index)` through
//! counter-based sub-streams ([`hp_rand::rngs::CounterRng`]). Sharing
//! group `g`'s `k`-th arrival comes from the group's own Poisson stream
//! ([`KeyedArrivals`], a sub-stream of stream 1 split by group), and item
//! `id`'s service demand from sub-stream `id` of stream 2. A parallel lane
//! therefore draws only its own groups' stimulus and reproduces it bit for
//! bit, with no chain shared between lanes.

use crate::config::{ExperimentConfig, Load, TrafficSource};
use hp_rand::rngs::CounterRng;
use hp_sim::rng::RngFactory;
use hp_sim::time::Cycles;
use hp_traffic::flows::FlowTrafficGenerator;
use hp_traffic::generator::{Arrival, KeyedArrivals};
use hp_workloads::service::ServiceModel;

/// The keyed stimulus of one experiment, for the sharing groups one engine
/// owns.
#[derive(Debug)]
pub struct Stimulus {
    /// Per-group arrival streams: `None` for a group the engine does not
    /// own, and for one with zero offered mass (no arrival can ever
    /// target it).
    arrivals: Vec<Option<KeyedArrivals>>,
    service: ServiceModel,
    service_rng: CounterRng,
    rate: f64,
}

impl Stimulus {
    /// Builds the stimulus of `cfg` over the queue→group map
    /// `group_of_queue` ([`ExperimentConfig::queue_groups`]), with an
    /// arrival stream for each group `owned` marks.
    ///
    /// The queue weights are the traffic shape's, or, for flow traffic,
    /// the per-queue load shares its flow→queue steering implies
    /// ([`FlowTrafficGenerator::queue_load_shares`]): the engine routes
    /// only on queue, so a flow mix is a Poisson process with those
    /// weights.
    ///
    /// # Panics
    ///
    /// Panics if the offered rate is not positive (`validate` does not
    /// check the rate).
    pub fn new(cfg: &ExperimentConfig, group_of_queue: &[usize], owned: &[bool]) -> Self {
        let rngs = RngFactory::new(cfg.seed);
        let clock = cfg.machine.clock;
        let rate = match cfg.load {
            Load::RatePerSec(r) => r,
            // Drive well past capacity; drops bound the backlog.
            Load::Saturation => cfg.capacity_estimate_per_core() * cfg.dp_cores as f64 * 3.0,
        };
        let weights = match cfg.traffic {
            TrafficSource::Shape => cfg.shape.weights(cfg.queues),
            TrafficSource::Flows { flows, zipf_s } => {
                FlowTrafficGenerator::new(flows, zipf_s, cfg.queues, rate, clock, rngs.stream(1))
                    .queue_load_shares(cfg.queues)
            }
        };
        // Stream ids: 1 = traffic (one sub-stream per group), 2 = service
        // (one sub-stream per item), 3 = faults.
        let base = CounterRng::from_key(rngs.stream_seed(1));
        let arrivals = owned
            .iter()
            .enumerate()
            .map(|(g, &own)| {
                own.then(|| {
                    KeyedArrivals::from_weights(
                        &weights,
                        rate,
                        clock,
                        group_of_queue,
                        g,
                        base.split(g as u64),
                    )
                    .expect("offered rate must be positive")
                })
                .flatten()
            })
            .collect();
        Stimulus {
            arrivals,
            service: ServiceModel::new(cfg.workload, cfg.service_dist, clock),
            service_rng: CounterRng::from_key(rngs.stream_seed(2)),
            rate,
        }
    }

    /// Total offered rate over all groups, tasks/second.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Whether group `g` has an arrival stream.
    pub fn has_stream(&self, g: usize) -> bool {
        self.arrivals[g].is_some()
    }

    /// Group `g`'s `k`-th arrival (0-based): the gap to its next arrival
    /// and the queue this one targets. `None` when the group has no
    /// stream.
    pub fn arrival(&self, g: usize, k: u64) -> Option<Arrival> {
        self.arrivals[g].as_ref().map(|a| a.arrival(k))
    }

    /// The item id of group `g`'s `k`-th arrival, `g + k * groups`: a
    /// dense, collision-free numbering of the per-group sequences.
    pub fn item_id(&self, g: usize, k: u64) -> u64 {
        g as u64 + k * self.arrivals.len() as u64
    }

    /// Item `id`'s service demand.
    pub fn service(&self, id: u64) -> Cycles {
        self.service.sample(&mut self.service_rng.split(id))
    }
}
