//! E14 — §4.1 decision-tree queries on the epidemiology survey.
//!
//! The fraction of users accepted by a decision tree equals the sum of the
//! accepting-path conjunction frequencies; each path is one sketch query.

use crate::common::{publish, Config};
use crate::report::{f, Table};
use psketch_core::{BitSubset, Sketcher};
use psketch_data::SurveyModel;
use psketch_queries::{DecisionTree, QueryEngine};

const EXP: u64 = 14;
const P: f64 = 0.3;

/// The paper's intro query as a tree: HIV+ and NOT AIDS.
fn hiv_not_aids() -> DecisionTree {
    DecisionTree::split(
        0, // hiv_positive
        DecisionTree::Leaf(false),
        DecisionTree::split(1, DecisionTree::Leaf(true), DecisionTree::Leaf(false)),
    )
}

/// A deeper triage tree over smoker/inhaled/urban.
fn triage() -> DecisionTree {
    DecisionTree::split(
        3, // smoker
        DecisionTree::split(
            2, // inhaled
            DecisionTree::Leaf(false),
            DecisionTree::split(4, DecisionTree::Leaf(false), DecisionTree::Leaf(true)),
        ),
        DecisionTree::split(4, DecisionTree::Leaf(true), DecisionTree::Leaf(true)),
    )
}

/// Runs E14.
#[must_use]
pub fn run(cfg: &Config) -> Vec<Table> {
    let mut t = Table::new(
        "E14 — decision trees over the epidemiology survey",
        &["tree", "depth", "paths", "truth", "estimate", "|err|"],
    );
    let m = cfg.m(80_000);
    let model = SurveyModel::epidemiology();
    let mut rng = cfg.rng(EXP, 0);
    let pop = model.generate(m, &mut rng);
    let params = cfg.params(P, 10, EXP);
    let sketcher = Sketcher::new(params);
    let engine = QueryEngine::new(params);

    let trees = [("hiv+ & !aids", hiv_not_aids()), ("triage", triage())];
    let mut subsets: Vec<BitSubset> = Vec::new();
    for (_, tree) in &trees {
        subsets.extend(tree.to_plan().required_subsets());
    }
    subsets.sort();
    subsets.dedup();
    let (db, _) = publish(&pop, &sketcher, &subsets, &mut rng);

    for (name, tree) in &trees {
        let plan = tree.to_plan();
        let ans = &engine.execute_plan(&db, &plan).expect("paths published")[0];
        let truth = pop.true_fraction_by(|p| tree.evaluate(p));
        t.row(vec![
            (*name).to_string(),
            tree.depth().to_string(),
            plan.cost().to_string(),
            f(truth, 4),
            f(ans.value, 4),
            f((ans.value - truth).abs(), 4),
        ]);
    }
    t.note("'hiv+ & !aids' is the paper's introductory motivating query");
    vec![t]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_estimates_track_truth() {
        let tables = run(&Config::quick());
        assert_eq!(tables[0].rows.len(), 2);
        for row in &tables[0].rows {
            let err: f64 = row[5].parse().unwrap();
            assert!(err < 0.1, "{}: err {err}", row[0]);
        }
    }

    #[test]
    fn intro_tree_matches_hand_semantics() {
        let tree = hiv_not_aids();
        use psketch_core::Profile;
        assert!(tree.evaluate(&Profile::from_bits(&[true, false, false, false, false])));
        assert!(!tree.evaluate(&Profile::from_bits(&[true, true, false, false, false])));
        assert!(!tree.evaluate(&Profile::from_bits(&[false, false, false, false, false])));
    }
}
