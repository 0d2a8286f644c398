//! `--compare BASE NEW`: one row per workload and end-to-end metric, with
//! the median of each side's runs, the delta, the bound from
//! `BENCHMARK.json` and a verdict.
//!
//! BASE and NEW are files of run records, one JSON object per line, as
//! `--out` appends them. A metric is `unresolved` when either side's
//! run-to-run spread (quartile distance over median) is wider than its
//! bound, unless every run of one side reads better than every run of the
//! other; otherwise it is `regressed` when NEW's median is worse than BASE's
//! by more than the bound, and `ok` when not.
//!
//! The wall-clock latency percentiles of the records' `latencies` follow in
//! rows of their own, judged the same way against [`LATENCY_BOUND`]. They
//! are not gated: a `regressed` latency does not fail the comparison,
//! because on a shared host they move with a neighbour's load.

use crate::stats::{median, quartile_spread};
use std::collections::{BTreeMap, BTreeSet};
use telemetry::{parse_json, JsonValue};

/// Bound of the ungated wall-clock latency percentiles.
const LATENCY_BOUND: f64 = 0.10;

/// One metric's regression rule.
#[derive(Clone, Debug, PartialEq)]
struct Bound {
    /// Metric name.
    name: String,
    /// `"better": "lower"`.
    lower_is_better: bool,
    /// Share of BASE's median by which NEW may be worse.
    bound: f64,
    /// Whether a regression fails the comparison.
    gated: bool,
}

/// The `end_to_end` rules of a `BENCHMARK.json` document.
fn bounds(bench_json: &str) -> Result<Vec<Bound>, String> {
    let doc = parse_json(bench_json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(JsonValue::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).ok_or(format!("end_to_end entry without `{k}`"));
            Ok(Bound {
                name: field("name")?
                    .as_str()
                    .ok_or("`name` is not a string")?
                    .to_owned(),
                lower_is_better: field("better")?.as_str() == Some("lower"),
                bound: field("bound")?.as_f64().ok_or("`bound` is not a number")?,
                gated: true,
            })
        })
        .collect()
}

/// Values of untraced run records by (workload, metric or latency).
type Runs = BTreeMap<(String, String), Vec<f64>>;

/// Untraced run records grouped as (workload, name) → values, and the
/// names that are latencies.
fn runs(text: &str) -> Result<(Runs, BTreeSet<String>), String> {
    let mut out = Runs::new();
    let mut latency_names = BTreeSet::new();
    for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
        let rec = parse_json(line)?;
        if rec.get("trace").and_then(JsonValue::as_f64) != Some(0.0) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(JsonValue::as_str)
            .ok_or("run record without workload")?;
        let Some(JsonValue::Obj(metrics)) = rec.get("metrics") else {
            return Err("run record without metrics".to_owned());
        };
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(JsonValue::as_f64) {
                out.entry((workload.to_owned(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
        if let Some(JsonValue::Obj(latencies)) = rec.get("latencies") {
            for (name, v) in latencies {
                if let Some(v) = v.as_f64() {
                    out.entry((workload.to_owned(), name.clone()))
                        .or_default()
                        .push(v);
                    latency_names.insert(name.clone());
                }
            }
        }
    }
    Ok((out, latency_names))
}

/// The comparison outcome of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// The runs spread wider than the bound.
    Unresolved,
}

/// Verdict and signed relative change of NEW's median over BASE's.
fn verdict(base: &[f64], new: &[f64], rule: &Bound) -> (Verdict, f64) {
    let (Some(b), Some(n)) = (median(base), median(new)) else {
        return (Verdict::Unresolved, f64::NAN);
    };
    let delta = (n - b) / b;
    let worse = if rule.lower_is_better { delta } else { -delta };
    let (Some(sb), Some(sn)) = (quartile_spread(base), quartile_spread(new)) else {
        return (Verdict::Unresolved, delta);
    };
    let spread = sb.max(sn);
    let max = |v: &[f64]| v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let (new_all_lower, new_all_higher) = (max(new) < min(base), min(new) > max(base));
    let (all_better, all_worse) = if rule.lower_is_better {
        (new_all_lower, new_all_higher)
    } else {
        (new_all_higher, new_all_lower)
    };
    let v = if spread > rule.bound && !all_better && !all_worse {
        Verdict::Unresolved
    } else if worse > rule.bound && !all_better {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (v, delta)
}

/// The comparison table, and whether any metric regressed.
pub fn compare(bench_json: &str, base: &str, new: &str) -> Result<(String, bool), String> {
    let mut rules = bounds(bench_json)?;
    let ((base, latencies), (new, _)) = (runs(base)?, runs(new)?);
    rules.extend(latencies.into_iter().map(|name| Bound {
        name,
        lower_is_better: true,
        bound: LATENCY_BOUND,
        gated: false,
    }));
    let mut table = format!(
        "{:<15} {:<22} {:>12} {:>12} {:>8} {:>6}  verdict\n",
        "workload", "metric", "base", "new", "delta", "bound"
    );
    let mut regressed = false;
    let workloads: BTreeSet<&String> = base.keys().map(|(w, _)| w).collect();
    for workload in workloads {
        for rule in &rules {
            let key = (workload.clone(), rule.name.clone());
            let b = match base.get(&key) {
                Some(b) => b.as_slice(),
                // A latency this workload does not measure.
                None if !rule.gated => continue,
                None => &[],
            };
            let n = new.get(&key).map_or(&[][..], Vec::as_slice);
            let (v, delta) = verdict(b, n, rule);
            regressed |= rule.gated && v == Verdict::Regressed;
            table.push_str(&format!(
                "{workload:<15} {:<22} {:>12.6} {:>12.6} {:>+7.1}% {:>6.2}  {}{}\n",
                rule.name,
                median(b).unwrap_or(f64::NAN),
                median(n).unwrap_or(f64::NAN),
                delta * 100.0,
                rule.bound,
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                },
                if rule.gated { "" } else { " (not gated)" }
            ));
        }
    }
    Ok((table, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rule(lower_is_better: bool) -> Bound {
        Bound {
            name: "cycle_ms_p50".to_owned(),
            lower_is_better,
            bound: 0.10,
            gated: true,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let base = [100.0, 101.0, 99.0, 100.0, 100.5];
        let lower = rule(true);
        // 5% slower: within the bound.
        let (v, d) = verdict(&base, &[105.0, 106.0, 104.0, 105.0, 105.5], &lower);
        assert_eq!(v, Verdict::Ok);
        assert!((d - 0.05).abs() < 1e-9, "{d}");
        // 20% slower: regressed.
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0, 120.0, 120.5], &lower).0,
            Verdict::Regressed
        );
        // Higher is better: the same numbers are an improvement.
        assert_eq!(
            verdict(&base, &[120.0, 121.0, 119.0, 120.0, 120.5], &rule(false)).0,
            Verdict::Ok
        );
        // Runs that overlap and spread wider than the bound: unresolved.
        let wide = [60.0, 150.0, 90.0, 130.0, 70.0];
        assert_eq!(verdict(&base, &wide, &lower).0, Verdict::Unresolved);
        // A wide spread with every new run better than every base run: ok.
        assert_eq!(
            verdict(&base, &[50.0, 80.0, 60.0, 90.0, 55.0], &lower).0,
            Verdict::Ok
        );
        // Fewer than two runs on a side have no spread: unresolved.
        assert_eq!(verdict(&[100.0], &[101.0], &lower).0, Verdict::Unresolved);
    }

    #[test]
    fn compare_reads_run_records_and_bounds() {
        let bench =
            r#"{"end_to_end":[{"name":"cycle_ms_p50","unit":"ms","better":"lower","bound":0.1}]}"#;
        let rec = |v: f64| {
            format!(
                "{{\"workload\":\"uniform-4k\",\"seed\":1,\"trace\":0,\"metrics\":{{\"cycle_ms_p50\":{{\"value\":{v},\"unit\":\"ms\"}}}}}}\n"
            )
        };
        let base: String = [100.0, 101.0, 99.0].map(rec).concat();
        let slow: String = [130.0, 131.0, 129.0].map(rec).concat();
        let (table, regressed) = compare(bench, &base, &base).unwrap();
        assert!(!regressed && table.contains(" ok"), "{table}");
        let (table, regressed) = compare(bench, &base, &slow).unwrap();
        assert!(regressed && table.contains("regressed"), "{table}");
    }

    #[test]
    fn latencies_get_a_verdict_but_do_not_fail_the_comparison() {
        let bench = r#"{"end_to_end":[{"name":"cycle_minstr","unit":"Minstr","better":"lower","bound":0.1}]}"#;
        let rec = |ms: f64| {
            format!(
                "{{\"workload\":\"uniform-4k\",\"trace\":0,\"metrics\":{{\"cycle_minstr\":{{\"value\":4684.4,\"unit\":\"Minstr\"}}}},\"latencies\":{{\"cycle_ms_p50\":{ms}}}}}\n"
            )
        };
        let base: String = [100.0, 101.0, 99.0].map(rec).concat();
        let slow: String = [130.0, 131.0, 129.0].map(rec).concat();
        let (table, regressed) = compare(bench, &base, &slow).unwrap();
        assert!(!regressed, "{table}");
        let row = table.lines().find(|l| l.contains("cycle_ms_p50")).unwrap();
        assert!(row.ends_with("regressed (not gated)"), "{table}");
        assert!(table
            .lines()
            .any(|l| l.contains("cycle_minstr") && l.ends_with(" ok")));
    }
}
