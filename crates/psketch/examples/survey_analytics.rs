//! Survey analytics: the paper's motivating epidemiology workload.
//!
//! A sensitive health survey (HIV status, AIDS, smoking, …) is published
//! only as sketches; the analyst then answers the paper's introductory
//! query ("what fraction of individuals are HIV+ and do not have AIDS"),
//! runs a decision-tree cohort query, and checks a privacy budget for the
//! number of sketches each user released.
//!
//! Run: `cargo run --release --example survey_analytics`

use psketch::core::PrivacyAccountant;
use psketch::queries::{DecisionTree, QueryEngine};
use psketch::{BitString, BitSubset, ConjunctiveQuery, GlobalKey, Prg, SketchParams, Sketcher};
use psketch_data::SurveyModel;
use rand::SeedableRng;

fn main() {
    let m = 60_000;
    let model = SurveyModel::epidemiology();
    let mut rng = Prg::seed_from_u64(7);
    let pop = model.generate(m, &mut rng);
    println!("survey attributes: {:?}", model.names());
    println!("population: {m} users\n");

    let params = SketchParams::with_sip(0.3, 10, GlobalKey::from_seed(1)).unwrap();
    let sketcher = Sketcher::new(params);
    let db = psketch::SketchDb::new();

    // Users sketch the (hiv, aids) pair and the (smoker, inhaled, urban)
    // triple — two sketches per user.
    let health = BitSubset::new(vec![0, 1]).unwrap();
    let lifestyle = BitSubset::new(vec![2, 3, 4]).unwrap();
    let failures = pop
        .publish_all(
            &sketcher,
            &[health.clone(), lifestyle.clone()],
            &db,
            &mut rng,
        )
        .unwrap();
    println!(
        "published {} sketches ({failures} failures)",
        db.total_records()
    );

    // Privacy accounting: 2 sketches at p = 0.3.
    let mut accountant = PrivacyAccountant::new(params.p(), 1e4);
    accountant.charge(2).unwrap();
    println!(
        "privacy spent per user: eps = {:.2} (ratio {:.1})",
        accountant.spent_epsilon(),
        1.0 + accountant.spent_epsilon()
    );

    // The paper's intro query: HIV+ and NOT AIDS.
    let engine = QueryEngine::new(params);
    let q = ConjunctiveQuery::new(health, BitString::from_bits(&[true, false])).unwrap();
    let est = engine.estimator().estimate(&db, &q).unwrap();
    let truth = pop.true_fraction_by(|p| p.get(0) && !p.get(1));
    println!("\nquery: HIV+ AND NOT AIDS");
    println!("  truth    : {truth:.5}");
    println!(
        "  estimate : {:.5} (clamped {:.5})",
        est.fraction,
        est.clamped()
    );

    // A decision-tree cohort over the lifestyle triple:
    // smoker ? urban : (inhaled AND urban).
    let tree = DecisionTree::split(
        3,
        DecisionTree::split(
            2,
            DecisionTree::Leaf(false),
            DecisionTree::split(4, DecisionTree::Leaf(false), DecisionTree::Leaf(true)),
        ),
        DecisionTree::split(4, DecisionTree::Leaf(false), DecisionTree::Leaf(true)),
    );
    let plan = tree.to_plan();
    // The tree's paths live inside the sketched lifestyle subset? No —
    // each path is its own conjunction on single attributes; publish the
    // needed subsets too (in a real deployment the coordinator announces
    // them up front).
    let needed = plan.required_subsets();
    pop.publish_all(&sketcher, &needed, &db, &mut rng).unwrap();
    let ans = &engine.execute_plan(&db, &plan).unwrap()[0];
    let tree_truth = pop.true_fraction_by(|p| tree.evaluate(p));
    println!(
        "\ndecision-tree cohort (depth {}, {} paths):",
        tree.depth(),
        plan.cost()
    );
    println!("  truth    : {tree_truth:.4}");
    println!("  estimate : {:.4}", ans.value);

    assert!((est.fraction - truth).abs() < 0.02);
    assert!((ans.value - tree_truth).abs() < 0.05);
    println!("\nok: both estimates inside their error bands");
}
