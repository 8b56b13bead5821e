//! E10 — §4.1 combined constraints and conditional averages.
//!
//! `freq(salary = c ∧ age < d)` via per-set-bit merged conjunctions, and
//! the conditional mean `avg(age | salary ≤ c)` as a ratio of the two
//! outputs of one plan, exactly as the paper prescribes.

use crate::common::{publish, Config};
use crate::report::{f, Table};
use psketch_core::{BitSubset, Sketcher};
use psketch_data::DemographicsModel;
use psketch_queries::{conditional_mean_plan, eq_and_less_than_plan, QueryEngine};

const EXP: u64 = 10;
const P: f64 = 0.25;

/// Runs E10.
#[must_use]
pub fn run(cfg: &Config) -> Vec<Table> {
    let m = cfg.m(60_000);
    let (model, salary, age) = DemographicsModel::salary_age();
    let mut rng = cfg.rng(EXP, 0);
    let pop = model.generate(m, &mut rng);
    let params = cfg.params(P, 10, EXP);
    let sketcher = Sketcher::new(params);
    let engine = QueryEngine::new(params);

    // Queries under test.
    let combos: Vec<(u64, u64)> = vec![(10, 64), (25, 100), (3, 32)];
    let cond_cs: Vec<u64> = vec![20, 60, 120];
    let mut subsets: Vec<BitSubset> = Vec::new();
    for &(c, d) in &combos {
        subsets.extend(eq_and_less_than_plan(&salary, c, &age, d).required_subsets());
    }
    for &c in &cond_cs {
        subsets.extend(conditional_mean_plan(&salary, c, &age).required_subsets());
    }
    subsets.sort();
    subsets.dedup();
    let (db, _) = publish(&pop, &sketcher, &subsets, &mut rng);

    let mut t = Table::new(
        "E10a — freq(salary = c && age < d)",
        &["c", "d", "queries", "truth", "estimate", "|err|"],
    );
    for &(c, d) in &combos {
        let plan = eq_and_less_than_plan(&salary, c, &age, d);
        let ans = &engine.execute_plan(&db, &plan).expect("subsets published")[0];
        let truth = pop.true_fraction_by(|p| salary.read(p) == c && age.read(p) < d);
        t.row(vec![
            c.to_string(),
            d.to_string(),
            plan.cost().to_string(),
            f(truth, 4),
            f(ans.value, 4),
            f((ans.value - truth).abs(), 4),
        ]);
    }
    t.note("query count = popcount(d): one merged conjunction per set bit");

    let mut t2 = Table::new(
        "E10b — conditional mean avg(age | salary <= c) as a ratio query",
        &["c", "truth", "estimate", "|err|"],
    );
    for &c in &cond_cs {
        let est = engine
            .ratio(&db, &conditional_mean_plan(&salary, c, &age))
            .expect("subsets published")
            .unwrap_or(f64::NAN);
        let truth = pop
            .true_conditional_mean(&salary, c, &age)
            .unwrap_or(f64::NAN);
        t2.row(vec![
            c.to_string(),
            f(truth, 2),
            f(est, 2),
            f((est - truth).abs(), 2),
        ]);
    }
    t2.note("numerator: sum-of-bits slices within the interval event; denominator: E9 interval");
    vec![t, t2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_estimates_track_truth() {
        let tables = run(&Config::quick());
        for row in &tables[0].rows {
            let err: f64 = row[5].parse().unwrap();
            assert!(err < 0.1, "combined error {err}");
        }
        for row in &tables[1].rows {
            let truth: f64 = row[1].parse().unwrap();
            let err: f64 = row[3].parse().unwrap();
            // Conditional means on ~100-point scales: allow coarse noise in
            // quick mode, but stay in the right region.
            assert!(err < truth.abs() * 0.8 + 25.0, "conditional error {err}");
        }
    }
}
