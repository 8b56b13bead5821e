//! E18 — the deployment protocol end to end, plus non-binary mining.
//!
//! A coordinator announces a plan sized by Lemma 3.1; budget-enforcing
//! user agents participate (or refuse); an analyst mines a categorical
//! attribute's histogram from the public pool. This is the §1 scenario
//! ("privacy in the hands of individuals") as a running system.

use crate::common::Config;
use crate::report::{f, Table};
use psketch_core::{IntField, Profile, UserId};
use psketch_prf::GlobalKey;
use psketch_protocol::{AnnouncementBuilder, Coordinator, UserAgent};
use psketch_queries::{histogram_plan, CategoricalAttribute, Histogram, QueryEngine};
use rand::RngExt;

const EXP: u64 = 18;
const P: f64 = 0.3;

/// Runs E18.
#[must_use]
pub fn run(cfg: &Config) -> Vec<Table> {
    let m = cfg.m(40_000) as u64;
    let mut rng = cfg.rng(EXP, 0);

    // A 3-bit categorical attribute (6 levels) with a skewed law.
    let field = IntField::new(0, 3);
    let attr = CategoricalAttribute::new(field, 6);
    let weights = [0.30f64, 0.25, 0.20, 0.12, 0.08, 0.05];

    let announcement = AnnouncementBuilder::new(2006, P, m, 1e-6)
        .global_key(*GlobalKey::from_seed(cfg.seed ^ EXP).as_bytes())
        .subset(attr.required_subset())
        .build()
        .expect("valid plan");
    let coordinator = Coordinator::new(announcement.clone());

    // Users with heterogeneous budgets: 10% are too privacy-conscious to
    // participate at this p.
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
        let budget = if i % 10 == 0 { 1.0 } else { 100.0 };
        let mut agent = UserAgent::new(UserId(i), profile, P, budget);
        if !agent.can_participate(&announcement) {
            refusals += 1;
            continue;
        }
        truth[level as usize] += 1;
        let submission = agent
            .participate(&announcement, &mut rng)
            .expect("in budget");
        coordinator.accept(&submission).expect("well-formed");
    }

    let mut t = Table::new(
        "E18a — protocol round: participation and pool integrity",
        &["metric", "value"],
    );
    t.row(vec!["announced subsets".into(), "1".into()]);
    t.row(vec![
        "sketch bits (Lemma 3.1)".into(),
        announcement.sketch_bits.to_string(),
    ]);
    t.row(vec![
        "eps per participant".into(),
        f(announcement.epsilon_cost(), 3),
    ]);
    t.row(vec![
        "participants".into(),
        coordinator.participants().to_string(),
    ]);
    t.row(vec!["budget refusals".into(), refusals.to_string()]);
    t.row(vec![
        "rejected submissions".into(),
        coordinator.rejected().to_string(),
    ]);
    t.note("refusals are user-side: agents enforce Corollary 3.4 themselves");

    // The analyst mines the categorical histogram from the pool.
    let params = announcement.validate().expect("validated at build");
    let engine = QueryEngine::new(params);
    let answers = engine
        .execute_plan(coordinator.pool(), &histogram_plan(&attr))
        .expect("pool populated");
    let hist = Histogram::from_answers(&answers);
    let n_participants: u64 = truth.iter().sum();
    let mut t2 = Table::new(
        "E18b — categorical histogram mined from the public pool (6 levels)",
        &["level", "truth", "estimate", "|err|"],
    );
    for (level, &count) in truth.iter().enumerate() {
        let tr = count as f64 / n_participants as f64;
        let est = hist.frequencies[level];
        t2.row(vec![
            level.to_string(),
            f(tr, 4),
            f(est, 4),
            f((est - tr).abs(), 4),
        ]);
    }
    let truth_dist: Vec<f64> = truth
        .iter()
        .map(|&c| c as f64 / n_participants as f64)
        .collect();
    t2.note(format!(
        "total variation to truth: {:.4}; mode recovered: {}",
        hist.total_variation(&truth_dist),
        hist.mode()
    ));
    vec![t, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_round_mines_the_histogram() {
        let tables = run(&Config::quick());
        // Refusals happened (the 10% low-budget cohort) and nothing bogus
        // got in.
        let metric = |name: &str| -> f64 {
            tables[0].rows.iter().find(|r| r[0] == name).unwrap()[1]
                .parse()
                .unwrap()
        };
        assert!(metric("budget refusals") > 0.0);
        assert_eq!(metric("rejected submissions"), 0.0);
        assert!(metric("participants") > 0.0);
        // Histogram errors are small.
        for row in &tables[1].rows {
            let err: f64 = row[3].parse().unwrap();
            assert!(err < 0.07, "level {}: err {err}", row[0]);
        }
    }
}
