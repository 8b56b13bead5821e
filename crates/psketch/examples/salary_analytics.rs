//! Salary analytics: §4.1 on non-binary data.
//!
//! Integer attributes (8-bit salary, 7-bit age) are sketched bit-wise and
//! prefix-wise; the analyst computes a mean, an interval frequency
//! ("salary below c"), a combined constraint and a conditional average —
//! each compiled to a handful of conjunctive queries exactly as §4.1
//! prescribes.
//!
//! Run: `cargo run --release --example salary_analytics`

use psketch::queries::{
    conditional_mean_plan, eq_and_less_than_plan, interval_required_subsets, less_equal_plan,
    mean_plan, mean_required_subsets, QueryEngine,
};
use psketch::{BitSubset, GlobalKey, Prg, SketchParams, Sketcher};
use psketch_data::DemographicsModel;
use rand::SeedableRng;

fn main() {
    let m = 80_000;
    let (model, salary, age) = DemographicsModel::salary_age();
    let mut rng = Prg::seed_from_u64(11);
    let pop = model.generate(m, &mut rng);
    println!("population: {m} users, salary (8-bit, skewed) + age (7-bit, bell)\n");

    let params = SketchParams::with_sip(0.25, 10, GlobalKey::from_seed(3)).unwrap();
    let sketcher = Sketcher::new(params);
    let engine = QueryEngine::new(params);
    let db = psketch::SketchDb::new();

    // The coordinator announces which subsets to sketch: every salary/age
    // bit, every salary prefix, and the merged subsets the combined
    // queries need.
    let combined = eq_and_less_than_plan(&salary, 25, &age, 100);
    let conditional = conditional_mean_plan(&salary, 60, &age);
    let mut subsets: Vec<BitSubset> = Vec::new();
    subsets.extend(mean_required_subsets(&salary));
    subsets.extend(mean_required_subsets(&age));
    subsets.extend(interval_required_subsets(&salary));
    subsets.extend(combined.required_subsets());
    subsets.extend(conditional.required_subsets());
    subsets.sort();
    subsets.dedup();
    println!("each user sketches {} subsets", subsets.len());
    pop.publish_all(&sketcher, &subsets, &db, &mut rng).unwrap();
    println!("database holds {} sketches\n", db.total_records());

    // Mean salary: 8 single-bit queries.
    let ans = &engine.execute_plan(&db, &mean_plan(&salary)).unwrap()[0];
    println!(
        "mean(salary):  truth {:8.2}   estimate {:8.2}   ({} queries)",
        pop.true_mean(&salary),
        ans.value,
        ans.queries_used
    );

    // Interval: freq(salary <= 60) — popcount(60)+1 queries.
    let ans = &engine
        .execute_plan(&db, &less_equal_plan(&salary, 60))
        .unwrap()[0];
    let truth = pop.true_fraction_by(|p| salary.read(p) <= 60);
    println!(
        "P[salary<=60]: truth {truth:8.4}   estimate {:8.4}   ({} queries)",
        ans.value, ans.queries_used
    );

    // Combined: freq(salary = 25 AND age < 100).
    let ans = &engine.execute_plan(&db, &combined).unwrap()[0];
    let truth = pop.true_fraction_by(|p| salary.read(p) == 25 && age.read(p) < 100);
    println!(
        "P[sal=25,age<100]: truth {truth:.4}   estimate {:.4}   ({} queries)",
        ans.value, ans.queries_used
    );

    // Conditional mean: avg(age | salary <= 60) as a two-output ratio plan.
    let est = engine.ratio(&db, &conditional).unwrap().unwrap();
    let truth = pop.true_conditional_mean(&salary, 60, &age).unwrap();
    println!("avg(age | salary<=60): truth {truth:8.2}   estimate {est:8.2}");

    println!("\nok: the whole §4.1 query menu ran off one set of published sketches");
}
