//! Seeded request pools and replay sequences.
//!
//! Every input the service workloads send is generated here from the
//! benchmark's `--seed`: the same seed gives byte-identical pools and
//! sequences. Pools are stratified so that the mix of response sizes —
//! and with it the latency distribution — barely moves between seeds;
//! the seed picks points inside narrow strata and the replay order.

use spechpc::harness::api::RunRequest;
use spechpc::harness::plan::{PlanJob, PlanRequest, PlanVariant};
use spechpc::prelude::{presets, ClusterSpec, WorkloadClass, BENCHMARK_NAMES};

/// SplitMix64: tiny, seedable, and stable across platforms.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_be9c_4a11_0001)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The two modeled clusters by API key.
pub fn clusters() -> [(&'static str, ClusterSpec); 2] {
    [("a", presets::cluster_a()), ("b", presets::cluster_b())]
}

/// Figures-grid points cheap enough to prime in set-up (each well under
/// ~0.1 s of simulation on a 2-core host): the only costly points of the
/// paper grid are hpgmgfv beyond ~57 ranks and minisweep/small beyond
/// two nodes. A static rule, so the pool never depends on a timing.
fn cheap(benchmark: &str, class: WorkloadClass, nranks: usize, cores: usize) -> bool {
    match (benchmark, class) {
        ("hpgmgfv", WorkloadClass::Small) => false,
        ("hpgmgfv", _) => nranks <= 57,
        ("minisweep", WorkloadClass::Small) => nranks <= 2 * cores,
        _ => true,
    }
}

/// `fig1`'s node-level rank counts (1 + 8k up to a full node, plus the
/// full node) for tiny runs.
fn tiny_counts(cores: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..)
        .map(|k| 1 + 8 * k)
        .take_while(|&n| n < cores)
        .collect();
    v.push(cores);
    v
}

/// The run-replay pool as `POST /v1/run` bodies.
///
/// Per cluster and benchmark: every cheap `fig5` point (small class at
/// 1, 2, 4 and 8 nodes — the large 30–90 KB bodies, fixed across seeds)
/// plus one seeded tiny point from each third of the cheap `fig1` rank
/// counts (the 3–20 KB bodies).
pub fn run_pool(seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    let mut pool = Vec::new();
    for (key, cluster) in clusters() {
        let cores = cluster.node.cores();
        for name in BENCHMARK_NAMES {
            let tiny: Vec<usize> = tiny_counts(cores)
                .into_iter()
                .filter(|&n| cheap(name, WorkloadClass::Tiny, n, cores))
                .collect();
            let third = tiny.len().div_ceil(3);
            for stratum in tiny.chunks(third) {
                let n = stratum[rng.below(stratum.len())];
                pool.push(run_body(key, name, WorkloadClass::Tiny, n));
            }
            for nodes in [1, 2, 4, 8] {
                let n = nodes * cores;
                if cheap(name, WorkloadClass::Small, n, cores) {
                    pool.push(run_body(key, name, WorkloadClass::Small, n));
                }
            }
        }
    }
    pool
}

fn run_body(cluster: &str, benchmark: &str, class: WorkloadClass, nranks: usize) -> String {
    RunRequest::new(benchmark, class, nranks)
        .with_cluster(cluster)
        .to_json()
}

/// Plans in the plan-replay pool.
pub const PLANS: usize = 64;
/// Job templates per plan.
const TEMPLATES: usize = 5;

// The shape of `plans/capacity-ci.json`, the planner's reference
// request: 16 ClusterA nodes, five tiny templates of 100 jobs each at
// one or two nodes' worth of ranks, arriving 5 s apart and repeating
// every 30 s, compared against ClusterB ("spr") and a 6250 W fleet cap.
const PLAN_CLUSTER: &str = "a";
const PLAN_NODES: usize = 16;
const TEMPLATE_RANKS: [usize; 2] = [72, 144];
const JOBS_PER_TEMPLATE: usize = 100;
const ARRIVAL_STEP_S: f64 = 5.0;
const INTERARRIVAL_S: f64 = 30.0;
const POWER_CAP_W: f64 = 6250.0;

/// Seed of the dealing of templates to plans, the same for every
/// benchmark seed: which templates share a plan sets most of its cost,
/// and dealt by the benchmark seed the few costliest plans — and with
/// them the replay's p90 — changed from seed to seed (p90 spread 0.12
/// over ten seeds, 0.02 over five runs of one seed).
const DEALING_SEED: u64 = 0x91a7;

/// The plan-replay pool as `POST /v1/plan` bodies: [`PLANS`] 500-job
/// plans shaped like `plans/capacity-ci.json`. All plans share one
/// fixed multiset of templates — every benchmark at each of
/// [`TEMPLATE_RANKS`] — dealt out five to a plan in one fixed way, so
/// every seed resolves the same job shapes and the cost mix barely
/// moves between seeds; the seed orders each plan's templates, and with
/// it their arrival times. Every plan compares against the other
/// cluster; every second plan also against the fleet power cap.
pub fn plan_pool(seed: u64) -> Vec<String> {
    let mut dealer = Rng::new(DEALING_SEED);
    let mut rng = Rng::new(seed.rotate_left(17) ^ 0x91a7);
    let templates: Vec<(&str, usize)> = BENCHMARK_NAMES
        .iter()
        .flat_map(|&name| TEMPLATE_RANKS.map(|n| (name, n)))
        .collect();
    // The first plans deal every template once, in a fixed order. They
    // resolve (simulate) every shape while the set-up primes them, so
    // priming, and the daemon's peak memory with it, is the same for
    // every seed; the fixed dealing deals the rest.
    let mut rest: Vec<(&str, usize)> = templates
        .iter()
        .copied()
        .cycle()
        .skip(templates.len())
        .take(PLANS * TEMPLATES - templates.len())
        .collect();
    dealer.shuffle(&mut rest);
    // Plans that hold a template's first deal stay in the fixed order.
    let priming = templates.len().div_ceil(TEMPLATES);
    templates
        .into_iter()
        .chain(rest)
        .collect::<Vec<_>>()
        .chunks(TEMPLATES)
        .enumerate()
        .map(|(i, jobs)| {
            let mut jobs = jobs.to_vec();
            if i >= priming {
                rng.shuffle(&mut jobs);
            }
            let mut req = PlanRequest::new()
                .with_cluster(PLAN_CLUSTER)
                .with_nodes(PLAN_NODES);
            for (t, &(name, nranks)) in jobs.iter().enumerate() {
                req = req.with_job(
                    PlanJob::new(name, WorkloadClass::Tiny, nranks)
                        .with_arrival(ARRIVAL_STEP_S * t as f64)
                        .with_count(JOBS_PER_TEMPLATE, INTERARRIVAL_S),
                );
            }
            req = req.with_variant(PlanVariant::new("spr").with_cluster("b"));
            if i % 2 == 0 {
                req = req.with_variant(PlanVariant::new("capped").with_power_cap_w(POWER_CAP_W));
            }
            req.to_json()
        })
        .collect()
}

/// A replay pass: every pool index `reps` times, in seeded order.
pub fn pass_order(seed: u64, pool_len: usize, reps: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed.rotate_left(33) ^ 0x0dde);
    let mut order: Vec<usize> = (0..reps).flat_map(|_| 0..pool_len).collect();
    rng.shuffle(&mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_byte_identical_pools() {
        assert_eq!(run_pool(7), run_pool(7));
        assert_eq!(plan_pool(7), plan_pool(7));
        assert_eq!(pass_order(7, 50, 2), pass_order(7, 50, 2));
        assert_ne!(run_pool(7), run_pool(8));
        assert_ne!(plan_pool(7), plan_pool(8));
    }

    #[test]
    fn run_pool_spans_both_clusters_and_all_benchmarks() {
        let pool = run_pool(1);
        let distinct: std::collections::BTreeSet<&String> = pool.iter().collect();
        assert_eq!(distinct.len(), pool.len(), "pool points are distinct");
        for c in ["\"a\"", "\"b\""] {
            for name in BENCHMARK_NAMES {
                assert!(pool
                    .iter()
                    .any(|b| b.contains(c) && b.contains(&format!("\"{name}\""))));
            }
        }
        // Stratified: the size of the pool does not depend on the seed.
        assert_eq!(run_pool(1).len(), run_pool(99).len());
    }

    #[test]
    fn plans_decode_and_carry_500_jobs() {
        for body in plan_pool(3) {
            let req = PlanRequest::from_json(&body).expect("generated plan decodes");
            assert_eq!(req.jobs.len(), TEMPLATES);
            assert_eq!(req.jobs.iter().map(|j| j.count).sum::<usize>(), 500);
        }
        let pool = plan_pool(3);
        assert_eq!(pool.len(), PLANS);
        let capped = pool
            .iter()
            .filter(|b| b.contains("power_cap_w\":6250"))
            .count();
        assert_eq!(capped, PLANS / 2, "half the plans carry the power cap");
        assert!(pool.iter().all(|b| b.contains("\"spr\"")));
        // The plans that prime every shape are the same for every seed.
        assert_eq!(pool[..3], plan_pool(4)[..3]);
    }

    #[test]
    fn pass_order_visits_every_index_reps_times() {
        let mut order = pass_order(5, 10, 3);
        order.sort_unstable();
        let want: Vec<usize> = (0..10).flat_map(|i| [i, i, i]).collect();
        assert_eq!(order, want);
    }
}
