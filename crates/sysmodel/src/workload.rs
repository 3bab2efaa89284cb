//! The memory-contention workload: two Poisson streams of competing memory
//! requests (paper §4, Table 2).
//!
//! Small requests arrive at rate `λ_small`, each claiming a uniform fraction
//! of total memory between 0 and `MemThres`, and hold it for an exponentially
//! distributed duration with mean `µ_small`. Large requests behave the same
//! with their own parameters and sizes up to 100 % of memory. The external
//! sort gets whatever is left, so every arrival is a potential memory
//! shortage for it and every departure potential excess memory.

use masort_simkit::dist::{uniform_fraction, Exponential};
use masort_simkit::events::EventQueue;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Which stream a request belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestClass {
    /// Small requests (up to `MemThres` of memory).
    Small,
    /// Large requests (up to 100 % of memory).
    Large,
}

/// A competing memory request currently holding pages.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MemoryRequest {
    /// Unique id.
    pub id: u64,
    /// Stream the request came from.
    pub class: RequestClass,
    /// Pages the request holds.
    pub pages: usize,
    /// Arrival time.
    pub arrived_at: f64,
    /// Scheduled departure time.
    pub departs_at: f64,
}

/// Workload parameters (paper Table 2 defaults).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WorkloadConfig {
    /// Arrival rate of small requests (requests per second).
    pub lambda_small: f64,
    /// Mean duration of small requests (seconds).
    pub mu_small: f64,
    /// Maximum fraction of total memory a small request may claim.
    pub mem_thres: f64,
    /// Arrival rate of large requests (requests per second).
    pub lambda_large: f64,
    /// Mean duration of large requests (seconds).
    pub mu_large: f64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            lambda_small: 1.0,
            mu_small: 0.8,
            mem_thres: 0.20,
            lambda_large: 0.1,
            mu_large: 5.0,
        }
    }
}

impl WorkloadConfig {
    /// A workload with no memory fluctuation at all (both rates zero).
    pub fn none() -> Self {
        WorkloadConfig {
            lambda_small: 0.0,
            lambda_large: 0.0,
            ..Self::default()
        }
    }

    /// The paper's "magnitude" experiment (§5.4): the small and large streams
    /// swap their arrival rates and durations so that most contention comes
    /// from large requests.
    pub fn large_magnitude() -> Self {
        WorkloadConfig {
            lambda_small: 0.1,
            mu_small: 5.0,
            mem_thres: 0.20,
            lambda_large: 1.0,
            mu_large: 0.8,
        }
    }

    /// The paper's "rate" experiment (§5.5), slow setting: rates divided by 5
    /// and durations multiplied by 5, keeping mean available memory constant.
    pub fn slow_rate() -> Self {
        WorkloadConfig {
            lambda_small: 0.2,
            mu_small: 4.0,
            mem_thres: 0.20,
            lambda_large: 0.02,
            mu_large: 25.0,
        }
    }

    /// The paper's "rate" experiment (§5.5), fast setting: rates multiplied by
    /// 5 and durations divided by 5.
    pub fn fast_rate() -> Self {
        WorkloadConfig {
            lambda_small: 5.0,
            mu_small: 0.16,
            mem_thres: 0.20,
            lambda_large: 0.5,
            mu_large: 1.0,
        }
    }

    /// True if this workload never generates any request.
    pub fn is_static(&self) -> bool {
        self.lambda_small <= 0.0 && self.lambda_large <= 0.0
    }
}

/// Internal event type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadEvent {
    /// A small request arrives.
    ArriveSmall,
    /// A large request arrives.
    ArriveLarge,
    /// The request with the given id departs.
    Depart(u64),
}

/// Generator + bookkeeping for the competing memory-request streams.
#[derive(Debug)]
pub struct MemoryWorkload {
    config: WorkloadConfig,
    total_pages: usize,
    rng: StdRng,
    events: EventQueue<WorkloadEvent>,
    active: Vec<MemoryRequest>,
    next_id: u64,
    arrivals_seen: u64,
}

impl MemoryWorkload {
    /// Create a workload over a memory of `total_pages` pages, seeding both
    /// arrival streams starting from time 0.
    pub fn new(config: WorkloadConfig, total_pages: usize, seed: u64) -> Self {
        let mut w = MemoryWorkload {
            config,
            total_pages,
            rng: StdRng::seed_from_u64(seed),
            events: EventQueue::new(),
            active: Vec::new(),
            next_id: 0,
            arrivals_seen: 0,
        };
        if config.lambda_small > 0.0 {
            let d = Exponential::with_rate(config.lambda_small);
            let t = d.sample(&mut w.rng);
            w.events.schedule(t, WorkloadEvent::ArriveSmall);
        }
        if config.lambda_large > 0.0 {
            let d = Exponential::with_rate(config.lambda_large);
            let t = d.sample(&mut w.rng);
            w.events.schedule(t, WorkloadEvent::ArriveLarge);
        }
        w
    }

    /// Pages currently held by competing requests.
    pub(crate) fn pages_held(&self) -> usize {
        self.active
            .iter()
            .map(|r| r.pages)
            .sum::<usize>()
            .min(self.total_pages)
    }

    /// Pages left over for the sort operator.
    pub fn pages_available_to_sort(&self) -> usize {
        self.total_pages.saturating_sub(self.pages_held())
    }

    /// Time of the next arrival or departure, if any.
    pub fn next_event_time(&self) -> Option<f64> {
        self.events.next_time()
    }

    /// Process the next event if it occurs at or before `time`. Returns `true`
    /// if an event was processed (the set of held pages may have changed).
    pub fn advance_one(&mut self, time: f64) -> bool {
        let Some((at, ev)) = self.events.pop_due(time) else {
            return false;
        };
        match ev {
            WorkloadEvent::ArriveSmall => {
                self.arrive(at, RequestClass::Small);
                let d = Exponential::with_rate(self.config.lambda_small);
                let next = at + d.sample(&mut self.rng);
                self.events.schedule(next, WorkloadEvent::ArriveSmall);
            }
            WorkloadEvent::ArriveLarge => {
                self.arrive(at, RequestClass::Large);
                let d = Exponential::with_rate(self.config.lambda_large);
                let next = at + d.sample(&mut self.rng);
                self.events.schedule(next, WorkloadEvent::ArriveLarge);
            }
            WorkloadEvent::Depart(id) => {
                self.active.retain(|r| r.id != id);
            }
        }
        true
    }

    fn arrive(&mut self, at: f64, class: RequestClass) {
        self.arrivals_seen += 1;
        let (max_frac, mean_dur) = match class {
            RequestClass::Small => (self.config.mem_thres, self.config.mu_small),
            RequestClass::Large => (1.0, self.config.mu_large),
        };
        let frac = uniform_fraction(&mut self.rng, max_frac);
        let pages = (frac * self.total_pages as f64).round() as usize;
        let duration = Exponential::with_mean(mean_dur.max(1e-9)).sample(&mut self.rng);
        let id = self.next_id;
        self.next_id += 1;
        let req = MemoryRequest {
            id,
            class,
            pages,
            arrived_at: at,
            departs_at: at + duration,
        };
        self.events
            .schedule(req.departs_at, WorkloadEvent::Depart(id));
        self.active.push(req);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_workload_never_fires() {
        let mut w = MemoryWorkload::new(WorkloadConfig::none(), 38, 1);
        assert!(w.config.is_static());
        assert_eq!(w.next_event_time(), None);
        assert!(!w.advance_one(1e9));
        assert_eq!(w.pages_available_to_sort(), 38);
    }

    #[test]
    fn arrivals_claim_and_departures_release_pages() {
        let mut w = MemoryWorkload::new(WorkloadConfig::default(), 100, 7);
        // Run 200 simulated seconds of events.
        let mut saw_hold = false;
        while let Some(next) = w.next_event_time() {
            if next > 200.0 {
                break;
            }
            w.advance_one(next);
            if w.pages_held() > 0 {
                saw_hold = true;
            }
            assert!(w.pages_held() <= 100);
        }
        assert!(saw_hold, "some requests should have held memory");
        assert!(w.arrivals_seen > 100, "roughly 1.1 arrivals per second");
    }

    #[test]
    fn small_requests_respect_mem_thres() {
        let mut w = MemoryWorkload::new(
            WorkloadConfig {
                lambda_large: 0.0,
                ..WorkloadConfig::default()
            },
            1000,
            3,
        );
        for _ in 0..500 {
            if let Some(t) = w.next_event_time() {
                w.advance_one(t);
            }
        }
        assert!(
            w.active.iter().all(|r| r.pages <= 200),
            "small requests must stay below MemThres"
        );
    }

    #[test]
    fn mean_available_memory_is_similar_for_slow_and_fast_rates() {
        // The rate experiment keeps the offered load constant (λ·µ product),
        // so the long-run average of available memory should be similar.
        let average_available = |cfg: WorkloadConfig, seed: u64| {
            let mut w = MemoryWorkload::new(cfg, 38, seed);
            let mut acc = 0.0f64;
            let mut last = 0.0f64;
            while let Some(next) = w.next_event_time() {
                if next > 3000.0 {
                    break;
                }
                acc += w.pages_available_to_sort() as f64 * (next - last);
                last = next;
                w.advance_one(next);
            }
            acc / last
        };
        let slow = average_available(WorkloadConfig::slow_rate(), 11);
        let fast = average_available(WorkloadConfig::fast_rate(), 12);
        let baseline = average_available(WorkloadConfig::default(), 13);
        assert!((slow - fast).abs() < 6.0, "slow {slow} vs fast {fast}");
        assert!(
            (slow - baseline).abs() < 6.0,
            "slow {slow} vs baseline {baseline}"
        );
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let mut w = MemoryWorkload::new(WorkloadConfig::default(), 38, seed);
            let mut log = Vec::new();
            for _ in 0..50 {
                if let Some(t) = w.next_event_time() {
                    w.advance_one(t);
                    log.push((t * 1e6) as u64);
                }
            }
            log
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }
}
