//! Shared query-family plumbing for the `query` and `cluster query`
//! subcommands: flag parsing into [`TermPlan`]s and machine-readable
//! `--json` rendering.
//!
//! Every family compiles to the same plan IR and runs through the
//! router, so one parser serves `cluster query` and `query` (a 1-shard
//! `cluster query`) identically.

use crate::args::{Args, CliError};
use psketch_cluster::Coverage;
use psketch_core::{ConjunctiveQuery, Estimate, IntField};
use psketch_obs::log::escape_json;
use psketch_queries::{
    dnf_plan, less_equal_plan, less_than_plan, mean_plan, moment_plan, range_plan, DecisionTree,
    LinearAnswer, TermPlan,
};

/// The query kinds `query`/`cluster query` compile through
/// [`family_plan`] (`conj` and `dist` compile in `run_query` to a
/// one-term and a `2^k`-term plan, whose per-term estimates it prints).
pub const PLAN_KINDS: &[&str] = &["mean", "interval", "dnf", "tree", "moment"];

/// The flags one plan-backed kind may consume (for `reject_unknown`):
/// each kind rejects the other families' flags instead of silently
/// ignoring them — a `--le` typoed onto a `mean` query must error, not
/// answer the wrong question.
#[must_use]
pub fn kind_flags(kind: &str) -> &'static [&'static str] {
    match kind {
        "mean" => &["field", "json", "explain"],
        "moment" => &["field", "order", "json", "explain"],
        "interval" => &["field", "lt", "le", "range", "json", "explain"],
        "dnf" => &["clauses", "json", "explain"],
        "tree" => &["tree", "json", "explain"],
        _ => &[],
    }
}

/// Parses `--field OFFSET:WIDTH` into an integer field.
///
/// # Errors
///
/// Malformed literals.
pub fn parse_field(raw: &str) -> Result<IntField, CliError> {
    let err = || {
        CliError(format!(
            "--field '{raw}' must look like OFFSET:WIDTH, e.g. 0:4"
        ))
    };
    let (offset, width) = raw.split_once(':').ok_or_else(err)?;
    let offset: u32 = offset.trim().parse().map_err(|_| err())?;
    let width: u32 = width.trim().parse().map_err(|_| err())?;
    if width == 0 || width > 20 {
        return Err(CliError(format!("--field width {width} must be in 1..=20")));
    }
    Ok(IntField::new(offset, width))
}

/// Parses `--clauses "0=1;1,2=10"`: semicolon-separated clauses, each
/// `positions=bits` with positions comma-separated and bits aligned to
/// them.
///
/// # Errors
///
/// Malformed literals or position/bit width mismatches.
pub fn parse_clauses(raw: &str) -> Result<Vec<ConjunctiveQuery>, CliError> {
    raw.split(';')
        .map(|clause| {
            let clause = clause.trim();
            let (positions, bits) = clause.split_once('=').ok_or_else(|| {
                CliError(format!(
                    "--clauses: clause '{clause}' must look like POS,POS=BITS, e.g. 0,2=10"
                ))
            })?;
            let subset = crate::service::parse_subset(positions)?;
            let value = crate::service::parse_value(bits.trim(), subset.len())?;
            ConjunctiveQuery::new(subset, value).map_err(|e| CliError(format!("--clauses: {e}")))
        })
        .collect()
}

/// Parses `--tree "0?(2?1:0):(1?0:1)"`: a decision tree where `ATTR?T:T`
/// splits on attribute `ATTR` (the first branch is taken when the
/// attribute is **1**), parentheses group subtrees, and `1`/`0` are
/// accept/reject leaves.
///
/// # Errors
///
/// Malformed literals.
pub fn parse_tree(raw: &str) -> Result<DecisionTree, CliError> {
    let bytes: Vec<char> = raw.chars().filter(|c| !c.is_whitespace()).collect();
    let (tree, used) = parse_tree_inner(&bytes, 0)?;
    if used != bytes.len() {
        return Err(CliError(format!(
            "--tree: trailing characters after position {used}"
        )));
    }
    Ok(tree)
}

fn parse_tree_inner(chars: &[char], at: usize) -> Result<(DecisionTree, usize), CliError> {
    let err = |what: &str, at: usize| {
        CliError(format!(
            "--tree: {what} at position {at} (grammar: TREE = 0 | 1 | ATTR?TREE:TREE | (TREE))"
        ))
    };
    match chars.get(at) {
        None => Err(err("unexpected end", at)),
        Some('(') => {
            let (tree, next) = parse_tree_inner(chars, at + 1)?;
            if chars.get(next) != Some(&')') {
                return Err(err("expected ')'", next));
            }
            Ok((tree, next + 1))
        }
        Some(c) if c.is_ascii_digit() => {
            // Read the whole number, then decide: a bare 0/1 not
            // followed by '?' is a leaf; anything else is a split.
            let mut end = at;
            while chars.get(end).is_some_and(char::is_ascii_digit) {
                end += 1;
            }
            let number: u32 = chars[at..end]
                .iter()
                .collect::<String>()
                .parse()
                .map_err(|_| err("attribute overflows u32", at))?;
            if chars.get(end) != Some(&'?') {
                return match number {
                    0 => Ok((DecisionTree::Leaf(false), end)),
                    1 => Ok((DecisionTree::Leaf(true), end)),
                    _ => Err(err("leaf must be 0 or 1", at)),
                };
            }
            let (if_one, next) = parse_tree_inner(chars, end + 1)?;
            if chars.get(next) != Some(&':') {
                return Err(err("expected ':'", next));
            }
            let (if_zero, next) = parse_tree_inner(chars, next + 1)?;
            Ok((DecisionTree::split(number, if_zero, if_one), next))
        }
        Some(_) => Err(err("unexpected character", at)),
    }
}

/// Builds the plan for one plan-backed query kind from its flags.
///
/// # Errors
///
/// Unknown kinds, missing or malformed flags.
pub fn family_plan(kind: &str, args: &Args) -> Result<TermPlan, CliError> {
    match kind {
        "mean" => Ok(mean_plan(&parse_field(&args.require::<String>("field")?)?)),
        "moment" => {
            let field = parse_field(&args.require::<String>("field")?)?;
            let order: u32 = args.get_or("order", 2)?;
            if !(1..=4).contains(&order) {
                return Err(CliError(format!("--order {order} must be in 1..=4")));
            }
            Ok(moment_plan(&field, order))
        }
        "interval" => {
            let field = parse_field(&args.require::<String>("field")?)?;
            let lt: String = args.get_or("lt", String::new())?;
            let le: String = args.get_or("le", String::new())?;
            let range: String = args.get_or("range", String::new())?;
            let chosen = [!lt.is_empty(), !le.is_empty(), !range.is_empty()];
            if chosen.iter().filter(|&&c| c).count() != 1 {
                return Err(CliError(
                    "interval needs exactly one of --lt C, --le C, --range LO:HI".into(),
                ));
            }
            let bound = |raw: &str| -> Result<u64, CliError> {
                let c: u64 = raw
                    .parse()
                    .map_err(|_| CliError(format!("cannot parse threshold '{raw}'")))?;
                if c > field.max_value() {
                    return Err(CliError(format!(
                        "threshold {c} exceeds the field's maximum {}",
                        field.max_value()
                    )));
                }
                Ok(c)
            };
            if !lt.is_empty() {
                Ok(less_than_plan(&field, bound(&lt)?))
            } else if !le.is_empty() {
                Ok(less_equal_plan(&field, bound(&le)?))
            } else {
                let (lo, hi) = range
                    .split_once(':')
                    .ok_or_else(|| CliError(format!("--range '{range}' must look like LO:HI")))?;
                let (lo, hi) = (bound(lo.trim())?, bound(hi.trim())?);
                if lo > hi {
                    return Err(CliError(format!("--range {lo}:{hi} is empty")));
                }
                Ok(range_plan(&field, lo, hi))
            }
        }
        "dnf" => {
            let clauses = parse_clauses(&args.require::<String>("clauses")?)?;
            if clauses.is_empty() || clauses.len() > psketch_queries::dnf::MAX_CLAUSES {
                return Err(CliError(format!(
                    "--clauses: need 1..={} clauses",
                    psketch_queries::dnf::MAX_CLAUSES
                )));
            }
            dnf_plan(&clauses).map_err(|e| CliError(e.to_string()))
        }
        "tree" => Ok(parse_tree(&args.require::<String>("tree")?)?.to_plan()),
        other => Err(CliError(format!(
            "unknown query kind '{other}' (plan kinds: {})",
            PLAN_KINDS.join(", ")
        ))),
    }
}

// ---------------------------------------------------------------------
// Machine-readable output (`--json`).
// ---------------------------------------------------------------------

/// Renders an `f64` as a JSON number (floats here are always finite;
/// estimates come from positive-population inversions).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The plan outputs as a JSON array.
pub fn json_outputs(plan: &TermPlan, answers: &[LinearAnswer]) -> String {
    let entries: Vec<String> = plan
        .outputs()
        .iter()
        .zip(answers)
        .map(|(out, a)| {
            format!(
                "{{\"label\":\"{}\",\"value\":{},\"queries_used\":{},\"min_sample_size\":{}}}",
                escape_json(&out.label),
                json_f64(a.value),
                a.queries_used,
                a.min_sample_size
            )
        })
        .collect();
    format!("[{}]", entries.join(","))
}

/// One estimate as a JSON object.
pub fn json_estimate(e: &Estimate) -> String {
    format!(
        "{{\"fraction\":{},\"raw\":{},\"sample_size\":{},\"half_width_95\":{}}}",
        json_f64(e.fraction),
        json_f64(e.raw),
        e.sample_size,
        json_f64(e.half_width(0.05))
    )
}

/// A cluster answer's coverage as a JSON object, including the
/// degraded-mode fields (missing shards, errors, known missing
/// fraction).
pub fn json_coverage(coverage: &Coverage) -> String {
    let responding: Vec<String> = coverage.responding.iter().map(u32::to_string).collect();
    let missing: Vec<String> = coverage
        .missing
        .iter()
        .map(|o| {
            format!(
                "{{\"shard\":{},\"error\":\"{}\"}}",
                o.shard,
                escape_json(&o.error)
            )
        })
        .collect();
    let missing_fraction = coverage
        .missing_fraction()
        .map_or_else(|| "null".to_string(), json_f64);
    format!(
        "{{\"total_shards\":{},\"responding\":[{}],\"missing\":[{}],\"population\":{},\
         \"degraded\":{},\"missing_fraction\":{}}}",
        coverage.total_shards,
        responding.join(","),
        missing.join(","),
        coverage.population,
        !coverage.is_complete(),
        missing_fraction
    )
}

/// A whole plan answer as one JSON document, coverage included.
pub fn json_plan_document(
    kind: &str,
    plan: &TermPlan,
    answers: &[LinearAnswer],
    coverage: &Coverage,
) -> String {
    format!(
        "{{\"query\":\"{}\",\"description\":\"{}\",\"plan_terms\":{},\"outputs\":{},\
         \"coverage\":{}}}",
        escape_json(kind),
        escape_json(plan.description()),
        plan.cost(),
        json_outputs(plan, answers),
        json_coverage(coverage)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(&tokens.iter().map(ToString::to_string).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn field_parsing() {
        let f = parse_field("2:4").unwrap();
        assert_eq!(f.offset(), 2);
        assert_eq!(f.width(), 4);
        assert!(parse_field("2").is_err());
        assert!(parse_field("a:4").is_err());
        assert!(parse_field("0:0").is_err());
        assert!(parse_field("0:40").is_err());
    }

    #[test]
    fn clause_parsing() {
        let clauses = parse_clauses("0=1; 1,2=10").unwrap();
        assert_eq!(clauses.len(), 2);
        assert_eq!(clauses[1].subset().positions(), &[1, 2]);
        assert!(clauses[1].value().get(0));
        assert!(!clauses[1].value().get(1));
        assert!(parse_clauses("0").is_err());
        assert!(parse_clauses("0=11").is_err()); // width mismatch
    }

    #[test]
    fn tree_parsing() {
        let t = parse_tree("0?(2?1:0):(1?0:1)").unwrap();
        assert_eq!(t.depth(), 2);
        // x0=1, x2=1 → accept (first branch is the attribute-1 side).
        assert!(t.evaluate(&psketch_core::Profile::from_bits(&[true, false, true])));
        assert!(!t.evaluate(&psketch_core::Profile::from_bits(&[true, false, false])));
        // x0=0, x1=1 → reject.
        assert!(!t.evaluate(&psketch_core::Profile::from_bits(&[false, true, false])));
        assert!(parse_tree("0?1").is_err());
        assert!(parse_tree("2").is_err());
        assert!(parse_tree("0?1:0garbage").is_err());
        assert!(parse_tree("(0?1:0").is_err());
    }

    #[test]
    fn family_plans_compile() {
        let plan = family_plan("mean", &parse(&["--field", "0:3"])).unwrap();
        assert_eq!(plan.cost(), 3);
        let plan = family_plan("interval", &parse(&["--field", "0:3", "--le", "5"])).unwrap();
        assert!(plan.cost() >= 1);
        let plan = family_plan("interval", &parse(&["--field", "0:3", "--range", "1:5"])).unwrap();
        assert!(plan.cost() >= 1);
        let plan = family_plan("dnf", &parse(&["--clauses", "0=1;1=1"])).unwrap();
        assert_eq!(plan.cost(), 3);
        let plan = family_plan("tree", &parse(&["--tree", "0?1:0"])).unwrap();
        assert_eq!(plan.cost(), 1);
        let plan = family_plan("moment", &parse(&["--field", "0:3", "--order", "2"])).unwrap();
        assert_eq!(plan.cost(), 3 + 3);
        assert!(family_plan("interval", &parse(&["--field", "0:3"])).is_err());
        assert!(family_plan(
            "interval",
            &parse(&["--field", "0:3", "--lt", "2", "--le", "3"])
        )
        .is_err());
        assert!(family_plan("interval", &parse(&["--field", "0:2", "--lt", "9"])).is_err());
        assert!(family_plan("moment", &parse(&["--field", "0:3", "--order", "7"])).is_err());
        assert!(family_plan("bogus", &parse(&[])).is_err());
    }

    #[test]
    fn kind_flags_are_disjoint_per_family() {
        assert!(kind_flags("mean").contains(&"field"));
        assert!(!kind_flags("mean").contains(&"le"));
        assert!(!kind_flags("dnf").contains(&"field"));
        assert!(kind_flags("bogus").is_empty());
    }

    #[test]
    fn json_rendering_is_valid_enough() {
        let plan = family_plan("mean", &parse(&["--field", "0:2"])).unwrap();
        let answers = vec![psketch_queries::LinearAnswer {
            value: 1.5,
            queries_used: 2,
            min_sample_size: 100,
        }];
        let coverage = Coverage {
            total_shards: 1,
            responding: vec![0],
            missing: Vec::new(),
            population: 100,
            missing_users: None,
        };
        let doc = json_plan_document("mean", &plan, &answers, &coverage);
        assert!(doc.contains("\"value\":1.5"));
        assert!(doc.contains("\"plan_terms\":2"));
        assert!(doc.contains("\"population\":100"));
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
