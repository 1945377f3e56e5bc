//! Result files and `compare`.
//!
//! A run writes `<out>/<workload>.json` (end to end) or
//! `<out>/<workload>-layers.json` (per layer). `compare A B` reads
//! every such file under each directory — directly or one level down
//! (`baseline/run1/…`, `baseline/run2/…`) — takes the median per
//! (workload, metric) on each side, and judges B against A with the
//! bounds fixed in `BENCHMARK.json`.

use crate::contract::{self, Def};
use crate::stats::median;
use fgc_views::Json;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// The contract's result object: exactly `correct`, `attempted`,
/// `failed`, `metrics`, every value with all its digits.
pub fn result_json(
    correct: bool,
    attempted: usize,
    failed: usize,
    values: &[(&Def, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (def, value)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            def.name,
            number(*value),
            def.unit
        );
    }
    out.push_str("}}");
    out
}

/// A float as a JSON number (JSON has no NaN or infinity).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".into()
    }
}

/// The result object wrapped with what it was measured on.
pub fn file_json(
    workload: &str,
    seed: u64,
    seconds: u64,
    env: &[(&'static str, String)],
    result: &str,
) -> String {
    let mut out = format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"seconds\": {seconds}, \"env\": {{"
    );
    for (i, (key, value)) in env.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{key}\": {}",
            Json::str(value.clone()).to_compact()
        );
    }
    let _ = writeln!(out, "}}, \"result\": {result}}}");
    out
}

/// (workload, metric) → one value per run found under a directory.
type Runs = BTreeMap<(String, String), Vec<f64>>;

fn read_file(path: &Path, runs: &mut Runs) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = fgc_server::parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let (Some(Json::Str(workload)), Some(Json::Object(metrics))) = (
        doc.get("workload"),
        doc.get("result").and_then(|r| r.get("metrics")),
    ) else {
        return Err(format!("{}: not a benchmark result file", path.display()));
    };
    for (name, metric) in metrics {
        let value = match metric.get("value") {
            Some(Json::Float(x)) => *x,
            Some(Json::Int(i)) => *i as f64,
            _ => return Err(format!("{}: metric {name} has no value", path.display())),
        };
        runs.entry((workload.clone(), name.clone()))
            .or_default()
            .push(value);
    }
    Ok(())
}

fn read_dir(dir: &Path) -> Result<Runs, String> {
    let list = |dir: &Path| -> Result<Vec<std::path::PathBuf>, String> {
        let mut paths: Vec<_> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .collect();
        paths.sort();
        Ok(paths)
    };
    let is_result = |path: &Path| {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        name.ends_with(".json") && !name.starts_with("trace-")
    };
    let mut runs = Runs::new();
    for path in list(dir)? {
        if path.is_dir() {
            for inner in list(&path)? {
                if is_result(&inner) {
                    read_file(&inner, &mut runs)?;
                }
            }
        } else if is_result(&path) {
            read_file(&path, &mut runs)?;
        }
    }
    if runs.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(runs)
}

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Worse than A by more than the bound.
    Breach,
    /// The difference is inside A's own run-to-run spread.
    Unresolved,
    Better,
    Worse,
}

/// Judge `b` against `a`. `worse_by` is the relative change in the
/// direction that counts as worse; `spread` is (max − min) / median of
/// A's runs; `bound` is absent for per-layer metrics.
pub fn judge(a: f64, b: f64, better: &str, spread: f64, bound: Option<f64>) -> (f64, Verdict) {
    let change = if a == 0.0 { 0.0 } else { (b - a) / a.abs() };
    let worse_by = if better == "lower" { change } else { -change };
    let verdict = if bound.is_some_and(|bound| worse_by > bound) {
        Verdict::Breach
    } else if worse_by.abs() <= spread {
        Verdict::Unresolved
    } else if worse_by > 0.0 {
        Verdict::Worse
    } else {
        Verdict::Better
    };
    (worse_by, verdict)
}

/// Print per-(workload, metric) deltas of B against A; `Ok(false)`
/// when any end-to-end metric breaches its bound.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (runs_a, runs_b) = (read_dir(a)?, read_dir(b)?);
    println!(
        "{:<10} {:<34} {:>14} {:>14} {:>9} {:>8} {:>7}  verdict",
        "workload", "metric", "A (median)", "B (median)", "worse by", "A spread", "bound"
    );
    let mut defs = contract::metrics("end_to_end");
    defs.extend(contract::metrics("per_layer"));
    let mut breaches = 0;
    for ((workload, metric), values_a) in &runs_a {
        let Some(values_b) = runs_b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some(def) = defs.iter().find(|d| d.name == *metric) else {
            continue;
        };
        let (mut sorted_a, mut sorted_b) = (values_a.clone(), values_b.clone());
        let (median_a, median_b) = (median(&mut sorted_a), median(&mut sorted_b));
        // `median` sorted them
        let spread = match median_a {
            m if m != 0.0 => (sorted_a[sorted_a.len() - 1] - sorted_a[0]) / m.abs(),
            _ => 0.0,
        };
        let bound = def.bound;
        let (worse_by, verdict) = judge(median_a, median_b, &def.better, spread, bound);
        breaches += usize::from(verdict == Verdict::Breach);
        println!(
            "{workload:<10} {metric:<34} {median_a:>14.4} {median_b:>14.4} {:>+8.1}% {:>7.1}% {:>7}  {}",
            worse_by * 100.0,
            spread * 100.0,
            bound.map_or("-".into(), |b| format!("{:.0}%", b * 100.0)),
            match verdict {
                Verdict::Breach => "BREACH",
                Verdict::Unresolved => "unresolved",
                Verdict::Better => "better",
                Verdict::Worse => "worse (within bound)",
            }
        );
    }
    println!("{breaches} breach(es)");
    Ok(breaches == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn end_to_end(name: &str) -> Def {
        let defs = contract::metrics("end_to_end");
        defs.into_iter().find(|d| d.name == name).expect("listed")
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let (setup, rps) = (end_to_end("setup_s"), end_to_end("throughput_rps"));
        let line = result_json(true, 1200, 0, &[(&setup, 0.8127), (&rps, 1534.25)]);
        let doc = fgc_server::parse_json(&line).expect("the result line is JSON");
        let Json::Object(fields) = &doc else {
            panic!("an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value"), Some(&Json::Float(0.8127)));
        assert_eq!(setup.get("unit"), Some(&Json::str("s")));
        assert!(!line.contains('\n'));
    }

    #[test]
    fn judge_applies_direction_spread_and_bound() {
        // latency up 30 % against a 15 % bound
        assert_eq!(
            judge(10.0, 13.0, "lower", 0.02, Some(0.15)).1,
            Verdict::Breach
        );
        // throughput down 30 % is just as bad
        assert_eq!(
            judge(100.0, 70.0, "higher", 0.02, Some(0.15)).1,
            Verdict::Breach
        );
        // inside A's own spread: not a finding either way
        assert_eq!(
            judge(10.0, 10.3, "lower", 0.05, Some(0.15)).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(10.0, 9.0, "lower", 0.02, Some(0.15)).1,
            Verdict::Better
        );
        assert_eq!(
            judge(10.0, 11.0, "lower", 0.02, Some(0.15)).1,
            Verdict::Worse
        );
        // per-layer metrics carry no bound and cannot breach
        assert_eq!(judge(10.0, 100.0, "lower", 0.02, None).1, Verdict::Worse);
    }

    #[test]
    fn compare_reads_runs_one_level_down_and_flags_a_breach() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-compare-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let write = |dir: &str, p50: f64| {
            let dir = root.join(dir);
            std::fs::create_dir_all(&dir).unwrap();
            let result = result_json(true, 10, 0, &[(&end_to_end("latency_p50_ms"), p50)]);
            std::fs::write(
                dir.join("lookup.json"),
                file_json("lookup", 1, 20, &[], &result),
            )
            .unwrap();
        };
        write("a/run1", 2.0);
        write("a/run2", 2.1);
        write("a/run3", 1.9);
        write("same", 2.05);
        write("slow", 3.0);
        assert_eq!(compare(&root.join("a"), &root.join("same")), Ok(true));
        assert_eq!(compare(&root.join("a"), &root.join("slow")), Ok(false));
        assert!(compare(&root.join("a"), &root.join("missing")).is_err());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
