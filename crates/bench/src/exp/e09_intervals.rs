//! E9 — §4.1 interval queries: "How many users have salary less than c?"
//!
//! The compilation uses popcount(c) prefix conjunctions; the error stays
//! `O(1/√M)` regardless of how many terms the threshold needs.

use crate::common::{publish, Config};
use crate::report::{f, Table};
use psketch_core::Sketcher;
use psketch_data::DemographicsModel;
use psketch_queries::{interval_required_subsets, less_equal_plan, QueryEngine};

const EXP: u64 = 9;
const P: f64 = 0.25;

/// Runs E9.
#[must_use]
pub fn run(cfg: &Config) -> Vec<Table> {
    let mut t = Table::new(
        "E9 — interval queries freq(salary <= c) via prefix conjunctions",
        &["c", "queries (popcount+1)", "truth", "estimate", "|err|"],
    );
    let m = cfg.m(50_000);
    let (model, salary, _age) = DemographicsModel::salary_age();
    let mut rng = cfg.rng(EXP, 0);
    let pop = model.generate(m, &mut rng);
    let params = cfg.params(P, 10, EXP);
    let sketcher = Sketcher::new(params);
    let engine = QueryEngine::new(params);
    let subsets = interval_required_subsets(&salary);
    let (db, _) = publish(&pop, &sketcher, &subsets, &mut rng);

    for &c in &[15u64, 32, 63, 100, 170, 255] {
        let ans = &engine
            .execute_plan(&db, &less_equal_plan(&salary, c))
            .expect("prefixes published")[0];
        let truth = pop.true_fraction_by(|p| salary.read(p) <= c);
        t.row(vec![
            c.to_string(),
            ans.queries_used.to_string(),
            f(truth, 4),
            f(ans.value, 4),
            f((ans.value - truth).abs(), 4),
        ]);
    }
    t.note("8 prefix subsets sketched once answer every threshold on the field");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_estimates_track_truth() {
        let tables = run(&Config::quick());
        for row in &tables[0].rows {
            let err: f64 = row[4].parse().unwrap();
            assert!(err < 0.12, "c={}: error {err}", row[0]);
        }
        // Query count = popcount(c) + 1 (the <= equality term).
        let row_63 = &tables[0].rows[2];
        assert_eq!(row_63[1], "7"); // 63 = 0b111111 → 6 + 1
    }
}
