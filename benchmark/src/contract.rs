//! `BENCHMARK.json`, the one place the benchmark's metrics are named:
//! each with its unit and direction, the end-to-end ones with the bound
//! by which they may worsen. The file this binary was built beside is
//! compiled in, so a run reports exactly the metrics it lists and
//! panics on one it lists but never measured.

use fgc_views::Json;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may get worse.
    pub bound: Option<f64>,
}

/// `run_seconds`: how long one run measures when `--seconds` is not
/// given, the same window the driver asks for.
pub fn run_seconds() -> u64 {
    let doc = fgc_server::parse_json(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
    match doc.get("run_seconds") {
        Some(Json::Int(seconds)) if *seconds >= 1 => *seconds as u64,
        other => panic!("BENCHMARK.json: run_seconds is a whole number, got {other:?}"),
    }
}

/// The metrics listed under `key` (`"end_to_end"` or `"per_layer"`).
pub fn metrics(key: &str) -> Vec<Def> {
    let doc = fgc_server::parse_json(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
    let Some(Json::Array(items)) = doc.get(key) else {
        panic!("BENCHMARK.json has a {key} array");
    };
    let text = |item: &Json, field: &str| match item.get(field) {
        Some(Json::Str(s)) => s.clone(),
        other => panic!("BENCHMARK.json: {key}.{field} is a string, got {other:?}"),
    };
    items
        .iter()
        .map(|item| Def {
            name: text(item, "name"),
            unit: text(item, "unit"),
            better: text(item, "better"),
            bound: match item.get("bound") {
                Some(Json::Float(bound)) => Some(*bound),
                _ => None,
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_units_and_bounds_fit_the_contract() {
        let (end_to_end, per_layer) = (metrics("end_to_end"), metrics("per_layer"));
        assert!((1..=16).contains(&end_to_end.len()) && (1..=128).contains(&per_layer.len()));
        assert!(end_to_end
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        let mut seen = std::collections::HashSet::new();
        for d in end_to_end.iter().chain(&per_layer) {
            assert!(seen.insert(d.name.clone()), "{} is listed twice", d.name);
            assert!(d.name.len() <= 64 && d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(matches!(d.better.as_str(), "lower" | "higher"));
        }
        assert!(end_to_end
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(per_layer.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn lists_exactly_the_workloads_the_harness_runs() {
        let doc = fgc_server::parse_json(BENCHMARK_JSON).unwrap();
        let Some(Json::Array(items)) = doc.get("workloads") else {
            panic!("BENCHMARK.json has a workloads array");
        };
        let listed: Vec<Option<&Json>> = items.iter().map(|w| w.get("name")).collect();
        let ours: Vec<Json> = crate::stream::Workload::ALL
            .iter()
            .map(|w| Json::str(w.name()))
            .collect();
        assert_eq!(listed, ours.iter().map(Some).collect::<Vec<_>>());
    }
}
