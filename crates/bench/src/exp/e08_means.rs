//! E8 — §4.1 means and inner products through sketches.
//!
//! Mean salary via k single-bit queries; mean inner product `E[salary·age]`
//! via k² two-bit queries on pair subsets.

use crate::common::{publish, Config};
use crate::report::{f, Table};
use psketch_core::{BitSubset, Sketcher};
use psketch_data::DemographicsModel;
use psketch_queries::{inner_product_plan, mean_plan, moment_plan, QueryEngine, TermPlan};

const EXP: u64 = 8;
const P: f64 = 0.25;

/// Runs E8.
#[must_use]
pub fn run(cfg: &Config) -> Vec<Table> {
    let mut t = Table::new(
        "E8 — §4.1 means and inner products (salary: 8-bit, age: 7-bit)",
        &["quantity", "M", "queries", "truth", "estimate", "rel. err"],
    );
    let m = cfg.m(50_000);
    let (model, salary, age) = DemographicsModel::salary_age();
    let mut rng = cfg.rng(EXP, 0);
    let pop = model.generate(m, &mut rng);
    let params = cfg.params(P, 10, EXP);
    let sketcher = Sketcher::new(params);
    let engine = QueryEngine::new(params);

    // Subsets: every single bit of both fields, plus every (salary, age)
    // bit pair for the inner product.
    let mean_salary_q = mean_plan(&salary);
    let mean_age_q = mean_plan(&age);
    let product_q = inner_product_plan(&salary, &age);
    let second_moment_q = moment_plan(&salary, 2);
    let mut subsets: Vec<BitSubset> = Vec::new();
    subsets.extend(mean_salary_q.required_subsets());
    subsets.extend(mean_age_q.required_subsets());
    subsets.extend(product_q.required_subsets());
    subsets.extend(second_moment_q.required_subsets());
    subsets.sort();
    subsets.dedup();
    let (db, failures) = publish(&pop, &sketcher, &subsets, &mut rng);
    assert_eq!(failures, 0, "no failures expected at l=10");

    let mut record = |name: &str, truth: f64, plan: &TermPlan| {
        let ans = &engine
            .execute_plan(&db, plan)
            .expect("all subsets published")[0];
        let rel = (ans.value - truth).abs() / truth.abs().max(1e-9);
        t.row(vec![
            name.to_string(),
            m.to_string(),
            ans.queries_used.to_string(),
            f(truth, 2),
            f(ans.value, 2),
            f(rel, 4),
        ]);
    };
    record("mean(salary)", pop.true_mean(&salary), &mean_salary_q);
    record("mean(age)", pop.true_mean(&age), &mean_age_q);
    record(
        "E[salary*age]",
        pop.true_mean_product(&salary, &age),
        &product_q,
    );
    let truth_m2 = (0..pop.len())
        .map(|i| {
            let v = salary.read(pop.profile(i)) as f64;
            v * v
        })
        .sum::<f64>()
        / pop.len() as f64;
    record("E[salary^2]", truth_m2, &second_moment_q);
    t.note("k single-bit queries per mean; k_a*k_b = 56 two-bit queries for the product");
    t.note("second moment: C(8,1)+C(8,2) = 36 conjunctions of width <= 2 (§1's 'higher moments')");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_are_close_in_quick_mode() {
        let tables = run(&Config::quick());
        for row in &tables[0].rows {
            let rel: f64 = row[5].parse().unwrap();
            // Quick mode uses few users; allow a loose but meaningful band.
            assert!(rel < 0.35, "{}: relative error {rel}", row[0]);
        }
        // Query counts are as the paper prescribes.
        assert_eq!(tables[0].rows[0][2], "8");
        assert_eq!(tables[0].rows[1][2], "7");
        assert_eq!(tables[0].rows[2][2], "56");
        assert_eq!(tables[0].rows[3][2], "36");
    }
}
