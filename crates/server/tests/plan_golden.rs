//! Golden plan identity: every query family's `TermPlan` over a fixed
//! grid of inputs, rendered exactly (description, terms in order, output
//! labels, constant and coefficient bits, slots) and pinned by CRC32.
//!
//! A plan that changes by one term, one slot or one float bit changes its
//! checksum, so the served answers of every family stay bit-identical as
//! long as this test passes. On a mismatch the test prints the whole
//! table of current checksums.

use psketch_core::{BitString, BitSubset, ConjunctiveQuery, IntField};
use psketch_queries as q;
use psketch_queries::{DecisionTree, TermPlan};
use psketch_server::wal::crc32;
use std::fmt::Write as _;

/// Renders a plan with every float as its bit pattern.
fn render(plan: &TermPlan) -> String {
    let mut out = format!("plan {:?}\n", plan.description());
    for (i, term) in plan.terms().iter().enumerate() {
        let bits: String = term
            .value()
            .to_bools()
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect();
        let _ = writeln!(out, "term {i} {:?} {bits}", term.subset().positions());
    }
    for output in plan.outputs() {
        let _ = write!(
            out,
            "output {:?} {:016x}",
            output.label,
            output.constant.to_bits()
        );
        for &(coeff, slot) in output.combination() {
            let _ = write!(out, " {:016x}@{slot}", coeff.to_bits());
        }
        out.push('\n');
    }
    out
}

fn clause(positions: &[u32], bits: &[bool]) -> ConjunctiveQuery {
    ConjunctiveQuery::new(
        BitSubset::new(positions.to_vec()).unwrap(),
        BitString::from_bits(bits),
    )
    .unwrap()
}

/// Every family over its input grid, named by family and inputs.
fn family_plans() -> Vec<(String, TermPlan)> {
    let mut plans = Vec::new();
    let f6 = IntField::new(0, 6);
    let f8 = IntField::new(3, 8);
    let (a, b) = (IntField::new(0, 3), IntField::new(3, 3));
    for field in [f6, f8] {
        plans.push((format!("mean@{}", field.offset()), q::mean_plan(&field)));
    }
    let f5 = IntField::new(1, 5);
    for r in 1..=3 {
        plans.push((format!("moment r={r}"), q::moment_plan(&f5, r)));
    }
    plans.push(("variance@0".into(), q::variance_plan(&IntField::new(0, 4))));
    plans.push(("variance@1".into(), q::variance_plan(&f5)));
    for c in [0, 1, 17, 32, 63] {
        plans.push((format!("lt {c}"), q::less_than_plan(&f6, c)));
        plans.push((format!("le {c}"), q::less_equal_plan(&f6, c)));
    }
    for (lo, hi) in [(0, 63), (3, 9), (5, 5), (0, 0), (30, 63)] {
        plans.push((format!("range {lo}..={hi}"), q::range_plan(&f6, lo, hi)));
    }
    let contradictory = [clause(&[0], &[true]), clause(&[0], &[false])];
    plans.push((
        "dnf contradictory pair".into(),
        q::dnf_plan(&contradictory).unwrap(),
    ));
    let three = [
        clause(&[0], &[true]),
        clause(&[1, 2], &[true, true]),
        clause(&[0, 3], &[false, false]),
    ];
    plans.push(("dnf three clauses".into(), q::dnf_plan(&three).unwrap()));
    plans.push((
        "inner product".into(),
        q::inner_product_plan(&IntField::new(0, 5), &IntField::new(5, 3)),
    ));
    plans.push((
        "mean square".into(),
        q::mean_square_plan(&IntField::new(0, 4)),
    ));
    for (c, d) in [(0, 0), (3, 5), (7, 7), (5, 2)] {
        plans.push((
            format!("eq {c} and lt {d}"),
            q::eq_and_less_than_plan(&a, c, &b, d),
        ));
    }
    for c in [0, 4, 7] {
        plans.push((
            format!("conditional mean c={c}"),
            q::conditional_mean_plan(&a, c, &b),
        ));
    }
    let trees = [
        ("tree accept", DecisionTree::Leaf(true)),
        ("tree reject", DecisionTree::Leaf(false)),
        (
            "tree sample",
            DecisionTree::split(
                0,
                DecisionTree::split(2, DecisionTree::Leaf(true), DecisionTree::Leaf(false)),
                DecisionTree::split(1, DecisionTree::Leaf(false), DecisionTree::Leaf(true)),
            ),
        ),
        (
            "tree retest",
            DecisionTree::split(
                0,
                DecisionTree::Leaf(true),
                DecisionTree::split(
                    0,
                    DecisionTree::Leaf(true),
                    DecisionTree::split(3, DecisionTree::Leaf(true), DecisionTree::Leaf(false)),
                ),
            ),
        ),
    ];
    for (name, tree) in trees {
        plans.push((name.into(), tree.to_plan()));
    }
    let (sa, sb) = (IntField::new(0, 4), IntField::new(4, 4));
    for r in 1..=4 {
        plans.push((format!("sum_lt r={r}"), q::sum_lt_plan(&sa, &sb, r)));
    }
    plans
}

/// CRC32 of each plan's rendering.
const GOLDEN: &[(&str, u32)] = &[
    ("mean@0", 0x02dcd576),
    ("mean@3", 0xc59c826d),
    ("moment r=1", 0x250ea9c0),
    ("moment r=2", 0xa808d555),
    ("moment r=3", 0x46c8a568),
    ("variance@0", 0xde6859a1),
    ("variance@1", 0xf044e23c),
    ("lt 0", 0x6ac1dbae),
    ("le 0", 0x5234a597),
    ("lt 1", 0x07ee7a0e),
    ("le 1", 0xcc1c906a),
    ("lt 17", 0x83588d85),
    ("le 17", 0xb8f0cb23),
    ("lt 32", 0x487b2e28),
    ("le 32", 0x6eddd195),
    ("lt 63", 0x4de9a92b),
    ("le 63", 0x7fed2444),
    ("range 0..=63", 0x850a1baa),
    ("range 3..=9", 0x5f255281),
    ("range 5..=5", 0x146ab311),
    ("range 0..=0", 0x76bb7a30),
    ("range 30..=63", 0xb6b1c3ff),
    ("dnf contradictory pair", 0x6135ceac),
    ("dnf three clauses", 0x89b9a7f1),
    ("inner product", 0x4e3c59ea),
    ("mean square", 0x127ff4b6),
    ("eq 0 and lt 0", 0xaf90dc95),
    ("eq 3 and lt 5", 0x15b29caa),
    ("eq 7 and lt 7", 0x50b1117a),
    ("eq 5 and lt 2", 0x6cc8bfac),
    ("conditional mean c=0", 0xde7de651),
    ("conditional mean c=4", 0xad490c1a),
    ("conditional mean c=7", 0x73515229),
    ("tree accept", 0x4b4e78c8),
    ("tree reject", 0x2f7fb20c),
    ("tree sample", 0xe7872c85),
    ("tree retest", 0xdb597e45),
    ("sum_lt r=1", 0x6e3e2979),
    ("sum_lt r=2", 0x0c4cc35f),
    ("sum_lt r=3", 0xad85d2b6),
    ("sum_lt r=4", 0x98eb4fad),
];

#[test]
fn every_family_plan_is_pinned() {
    let actual: Vec<(String, u32)> = family_plans()
        .iter()
        .map(|(name, plan)| (name.clone(), crc32(render(plan).as_bytes())))
        .collect();
    let expected: Vec<(String, u32)> = GOLDEN
        .iter()
        .map(|&(name, crc)| (name.to_string(), crc))
        .collect();
    if actual != expected {
        let mut table = String::new();
        for (name, crc) in &actual {
            let _ = writeln!(table, "    ({name:?}, 0x{crc:08x}),");
        }
        panic!("plan checksums differ; current table:\n{table}");
    }
}
