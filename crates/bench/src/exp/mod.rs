//! The experiment suite: one module per [`registry`] entry (e1–e27,
//! `experiments -- list`).

pub mod e01_sketch_length;
pub mod e02_correctness;
pub mod e03_privacy_ratio;
pub mod e04_budget;
pub mod e05_width_error;
pub mod e06_size;
pub mod e07_runtime;
pub mod e08_means;
pub mod e09_intervals;
pub mod e10_combined;
pub mod e11_sumlt;
pub mod e12_combine;
pub mod e13_sulq;
pub mod e14_trees;
pub mod e15_attacks;
pub mod e16_composition;
pub mod e17_functions;
pub mod e18_protocol;
pub mod e19_frontier;
pub mod e20_throughput;
pub mod e21_service;
pub mod e22_cluster;
pub mod e23_plans;
pub mod e24_scatter;
pub mod e25_lanes;
pub mod e26_obs;
pub mod e27_profile;

use crate::common::Config;
use crate::report::Table;

/// Every experiment: id, one-line description, runner.
pub type Runner = fn(&Config) -> Vec<Table>;

/// The experiment registry, in id order: what `experiments -- list`
/// prints and `experiments` runs.
#[must_use]
pub fn registry() -> Vec<(&'static str, &'static str, Runner)> {
    vec![
        (
            "e1",
            "Lemma 3.1: minimal sketch length & failure probability",
            e01_sketch_length::run,
        ),
        (
            "e2",
            "Lemma 3.2: sketch bias on true vs other values",
            e02_correctness::run,
        ),
        (
            "e3",
            "Lemma 3.3: exact privacy ratio vs bound",
            e03_privacy_ratio::run,
        ),
        (
            "e4",
            "Corollary 3.4: multi-sketch privacy budgets",
            e04_budget::run,
        ),
        (
            "e5",
            "Lemma 4.1: width-independent error vs RR baselines",
            e05_width_error::run,
        ),
        ("e6", "Size claim: loglog(M)-bit sketches", e06_size::run),
        (
            "e7",
            "Running time: Algorithm 1 iterations",
            e07_runtime::run,
        ),
        ("e8", "§4.1: means and inner products", e08_means::run),
        ("e9", "§4.1: interval queries", e09_intervals::run),
        (
            "e10",
            "§4.1: combined constraints & conditional means",
            e10_combined::run,
        ),
        (
            "e11",
            "Appendix E: a+b < 2^r via virtual bits",
            e11_sumlt::run,
        ),
        (
            "e12",
            "Appendix F: sketch combining & conditioning of V",
            e12_combine::run,
        ),
        (
            "e13",
            "Appendix A: input vs output perturbation",
            e13_sulq::run,
        ),
        ("e14", "§4.1: decision trees", e14_trees::run),
        (
            "e15",
            "Attack gallery: hashing/retention fall, sketches stand",
            e15_attacks::run,
        ),
        (
            "e16",
            "Conclusions: quadratically more sketches via advanced composition",
            e16_composition::run,
        ),
        (
            "e17",
            "Conclusions: sketching arbitrary functions of a profile",
            e17_functions::run,
        ),
        (
            "e18",
            "Deployment protocol + non-binary categorical mining",
            e18_protocol::run,
        ),
        (
            "e19",
            "Ablation: the privacy-utility frontier over p",
            e19_frontier::run,
        ),
        (
            "e20",
            "Throughput: scalar vs batched Algorithm 2 at 1M sketches",
            e20_throughput::run,
        ),
        (
            "e21",
            "Service: loopback TCP ingest + query throughput, WAL fidelity",
            e21_service::run,
        ),
        (
            "e22",
            "Cluster: sharded scatter-gather throughput at 1/2/4 shards",
            e22_cluster::run,
        ),
        (
            "e23",
            "Query plans: plan-path vs legacy-path per family, 1/2/4 shards",
            e23_plans::run,
        ),
        (
            "e24",
            "Scatter-gather: parallel vs sequential fan-out per family",
            e24_scatter::run,
        ),
        (
            "e25",
            "PRF lanes: SIMD multi-stream SipHash, lanes x cores matrix",
            e25_lanes::run,
        ),
        (
            "e26",
            "Observability: instrumented vs runtime-off scan overhead",
            e26_obs::run,
        ),
        (
            "e27",
            "Profiling: span-traced vs profiling-off scan overhead",
            e27_profile::run,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_complete_and_unique() {
        let reg = registry();
        assert_eq!(reg.len(), 27);
        let mut ids: Vec<&str> = reg.iter().map(|(id, _, _)| *id).collect();
        ids.dedup();
        assert_eq!(ids.len(), 27);
    }
}
