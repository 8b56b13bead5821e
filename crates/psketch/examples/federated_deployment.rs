//! A full deployment round: coordinator, budget-enforcing user agents,
//! wire-format submissions, and an analyst mining the public pool.
//!
//! This is the paper's §1 scenario as a running system: "individuals
//! maintain all of their private data and … release perturbed versions …
//! so that privacy is preserved and large-scale statistical patterns can
//! be approximately recovered."
//!
//! Run: `cargo run --release --example federated_deployment`

use psketch::protocol::{AnnouncementBuilder, Coordinator, UserAgent};
use psketch::queries::{histogram_plan, CategoricalAttribute, Histogram, QueryEngine};
use psketch::{GlobalKey, IntField, Prg, Profile, UserId};
use rand::{RngExt, SeedableRng};

fn main() {
    let m = 30_000u64;
    let p = 0.3;
    let mut rng = Prg::seed_from_u64(2026);

    // --- Coordinator: publish the plan -----------------------------------
    // One categorical attribute: employment sector, 6 levels in 3 bits.
    let field = IntField::new(0, 3);
    let sector = CategoricalAttribute::new(field, 6);
    let announcement = AnnouncementBuilder::new(1, p, m, 1e-6)
        .global_key(*GlobalKey::from_seed(99).as_bytes())
        .subset(sector.required_subset())
        .build()
        .unwrap();
    println!("coordinator announces:");
    println!(
        "  p = {}, sketch = {} bits (Lemma 3.1 for M = {m}, tau = 1e-6)",
        p, announcement.sketch_bits
    );
    println!(
        "  privacy cost per participant: eps = {:.2}",
        announcement.epsilon_cost()
    );
    let coordinator = Coordinator::new(announcement.clone());

    // --- Users: participate (or refuse) with private randomness ----------
    let weights = [0.28f64, 0.22, 0.18, 0.14, 0.10, 0.08];
    let mut truth = [0u64; 6];
    let mut refusals = 0u64;
    for i in 0..m {
        let mut u = rng.random::<f64>();
        let mut level = 5u64;
        for (j, &w) in weights.iter().enumerate() {
            if u < w {
                level = j as u64;
                break;
            }
            u -= w;
        }
        let mut profile = Profile::zeros(3);
        field.write(&mut profile, level);
        // 5% of users run strict budgets and refuse this plan.
        let budget = if i % 20 == 0 { 0.5 } else { 1e3 };
        let mut agent = UserAgent::new(UserId(i), profile, p, budget);
        if !agent.can_participate(&announcement) {
            refusals += 1;
            continue;
        }
        truth[level as usize] += 1;
        let submission = agent.participate(&announcement, &mut rng).unwrap();
        coordinator.accept(&submission).unwrap();
    }
    println!(
        "\n{} participants, {refusals} budget refusals, {} rejected submissions",
        coordinator.participants(),
        coordinator.rejected()
    );

    // A replayed (duplicate) submission is rejected. User 1 already
    // participated above (user 0 was in the strict-budget cohort).
    let mut replayer = UserAgent::new(UserId(1), Profile::zeros(3), p, 1e3);
    if replayer.can_participate(&announcement) {
        let dup = replayer.participate(&announcement, &mut rng).unwrap();
        match coordinator.accept(&dup) {
            Err(e) => println!("replay attempt rejected: {e}"),
            Ok(()) => unreachable!("duplicate must be rejected"),
        }
    }

    // --- Analyst: mine the public pool ------------------------------------
    let params = announcement.validate().unwrap();
    let engine = QueryEngine::new(params);
    let answers = engine
        .execute_plan(coordinator.pool(), &histogram_plan(&sector))
        .unwrap();
    let hist = Histogram::from_answers(&answers);
    let n: u64 = truth.iter().sum();
    println!("\nsector histogram (truth vs estimate):");
    for (level, &count) in truth.iter().enumerate() {
        println!(
            "  level {level}: {:.4}  vs  {:.4}",
            count as f64 / n as f64,
            hist.frequencies[level]
        );
    }
    let truth_dist: Vec<f64> = truth.iter().map(|&c| c as f64 / n as f64).collect();
    println!(
        "total variation: {:.4}; mode: level {}",
        hist.total_variation(&truth_dist),
        hist.mode()
    );
    assert!(hist.total_variation(&truth_dist) < 0.05);
    println!("\nok: the coordinator never saw a single raw profile");
}
