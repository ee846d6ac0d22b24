//! `camus-ledger compare A.json B.json`: is B worse than A?
//!
//! One row per workload x end-to-end metric: both medians, the change,
//! the bound, and a verdict. `worse` means B's median is worse than
//! A's by more than the bound. `unresolved` means one side's own runs
//! spread (interquartile distance over median) wider than the bound,
//! so the two medians cannot be told apart at that resolution. The
//! contract metrics take their bounds from `BENCHMARK.json`, each
//! workload's own rows from [`report::WORKLOAD_ROWS`].

use crate::json::Json;
use crate::report::{self, Better, MetricDef, StoredRun};
use crate::stats::Summary;
use crate::workloads;
use std::process::ExitCode;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub unit: &'static str,
    pub a: f64,
    pub b: f64,
    pub runs: (usize, usize),
    /// Change of the median from A to B as a share of A, signed so
    /// that positive is worse.
    pub worsening: f64,
    /// The wider of the two sides' spreads, when a side has two runs.
    pub spread: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

fn values(runs: &[StoredRun], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| !r.trace && r.workload == workload)
        .filter_map(|r| r.metrics.iter().find(|(n, _)| n == metric).map(|&(_, v)| v))
        .collect()
}

/// One row per workload and metric of `defs` that both sides report.
pub fn rows(a: &[StoredRun], b: &[StoredRun], defs: &[MetricDef]) -> Vec<Row> {
    let mut out = Vec::new();
    for workload in workloads::NAMES {
        for def in defs {
            let (Ok(sa), Ok(sb)) = (
                Summary::new(values(a, workload, def.name)),
                Summary::new(values(b, workload, def.name)),
            ) else {
                continue;
            };
            let (ma, mb) = (sa.median(), sb.median());
            let worsening = match def.better {
                Better::Lower => (mb - ma) / ma.abs(),
                Better::Higher => (ma - mb) / ma.abs(),
            };
            let spread = match (sa.spread(), sb.spread()) {
                (Some(x), Some(y)) => Some(x.max(y)),
                (x, y) => x.or(y),
            };
            let verdict = if spread.is_some_and(|s| s > def.bound) {
                Verdict::Unresolved
            } else if worsening > def.bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            out.push(Row {
                workload: workload.to_string(),
                metric: def.name,
                unit: def.unit,
                a: ma,
                b: mb,
                runs: (sa.count(), sb.count()),
                worsening,
                spread,
                bound: def.bound,
                verdict,
            });
        }
    }
    out
}

fn load(path: &str) -> Result<Vec<StoredRun>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let runs = Json::parse(&text)
        .map_err(|e| format!("{path}: {e}"))?
        .get("runs")
        .and_then(|r| r.array())
        .ok_or_else(|| format!("{path}: no `runs` array"))?;
    runs.iter()
        .map(|r| StoredRun::from_json(r).ok_or_else(|| format!("{path}: malformed run record")))
        .collect()
}

/// [`report::CONTRACT`] with the bounds `BENCHMARK.json` states.
fn contract_defs(benchmark_json: &str) -> Result<Vec<MetricDef>, String> {
    let listed = Json::parse(benchmark_json)?
        .get("end_to_end")
        .and_then(|e| e.array())
        .ok_or("BENCHMARK.json: no `end_to_end` array")?;
    report::CONTRACT
        .iter()
        .map(|def| {
            let bound = listed
                .iter()
                .find(|m| m.get("name").is_some_and(|n| n.str() == Some(def.name)))
                .and_then(|m| m.get("bound")?.num())
                .ok_or_else(|| format!("BENCHMARK.json: no bound for {}", def.name))?;
            Ok(MetricDef { bound, ..*def })
        })
        .collect()
}

fn print(title: &str, rows: &[Row]) {
    println!("{title}");
    println!(
        "  {:<16} {:<15} {:>14} {:>14} {:<7} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "unit", "worse by", "spread", "bound"
    );
    for r in rows {
        let spread = r.spread.map_or("n/a".to_string(), |s| format!("{:.2}%", s * 100.0));
        println!(
            "  {:<16} {:<15} {:>14.4} {:>14.4} {:<7} {:>7.2}% {:>8} {:>6.1}%  {} (n={}/{})",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.unit,
            r.worsening * 100.0,
            spread,
            r.bound * 100.0,
            r.verdict.word(),
            r.runs.0,
            r.runs.1
        );
    }
}

pub fn main(a_path: &str, b_path: &str) -> ExitCode {
    let loaded = load(a_path).and_then(|a| Ok((a, load(b_path)?)));
    let defs = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))
        .and_then(|text| contract_defs(&text));
    let ((a, b), defs) = match (loaded, defs) {
        (Ok(l), Ok(d)) => (l, d),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("camus-ledger compare: {e}");
            return ExitCode::from(2);
        }
    };
    println!("A = {a_path}\nB = {b_path}");
    let gated = rows(&a, &b, &defs);
    let own = rows(&a, &b, &report::WORKLOAD_ROWS);
    print("\nend-to-end metrics of BENCHMARK.json (bounds from BENCHMARK.json):", &gated);
    print("\neach workload's own rows:", &own);
    let failed: u64 = b.iter().map(|r| r.failed).sum();
    if failed > 0 {
        println!("\nB has {failed} failed operations: a failed operation misses every bound");
    }
    let worse = gated.iter().chain(&own).filter(|r| r.verdict == Verdict::Worse).count();
    let unresolved = gated.iter().chain(&own).filter(|r| r.verdict == Verdict::Unresolved).count();
    println!("\n{worse} worse, {unresolved} unresolved");
    if worse > 0 || failed > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, metric: &str, value: f64) -> StoredRun {
        StoredRun {
            workload: workload.into(),
            trace: false,
            failed: 0,
            metrics: vec![(metric.into(), value)],
        }
    }

    const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
        MetricDef { name, unit, better, bound: 0.07, workloads: &[] }
    }

    const DEFS: [MetricDef; 2] =
        [def("op_p50_us", "us", Better::Lower), def("ops_per_s", "1/s", Better::Higher)];

    fn side(workload: &str, metric: &str, vals: &[f64]) -> Vec<StoredRun> {
        vals.iter().map(|&v| run(workload, metric, v)).collect()
    }

    #[test]
    fn lower_is_better_metric_worse_beyond_the_bound() {
        let a = side("fwd-int", "op_p50_us", &[100.0, 101.0, 99.0]);
        let b = side("fwd-int", "op_p50_us", &[110.0, 111.0, 109.0]);
        let r = &rows(&a, &b, &DEFS)[0];
        assert_eq!((r.a, r.b), (100.0, 110.0));
        assert!((r.worsening - 0.10).abs() < 1e-12);
        assert_eq!(r.verdict, Verdict::Worse);
        // The same change the other way is an improvement.
        assert_eq!(rows(&b, &a, &DEFS)[0].verdict, Verdict::Ok);
    }

    #[test]
    fn higher_is_better_metric_flips_the_sign() {
        let a = side("churn-burst", "ops_per_s", &[100.0, 100.0, 100.0]);
        let b = side("churn-burst", "ops_per_s", &[90.0, 90.0, 90.0]);
        let r = &rows(&a, &b, &DEFS)[0];
        assert!((r.worsening - 0.10).abs() < 1e-12);
        assert_eq!(r.verdict, Verdict::Worse);
        assert_eq!(r.workload, "churn-burst");
    }

    #[test]
    fn within_the_bound_is_ok_and_a_wide_spread_is_unresolved() {
        let a = side("fwd-int", "op_p50_us", &[100.0, 101.0, 99.0]);
        let b = side("fwd-int", "op_p50_us", &[104.0, 105.0, 103.0]);
        assert_eq!(rows(&a, &b, &DEFS)[0].verdict, Verdict::Ok);
        // B's own runs differ by more than the bound.
        let noisy = side("fwd-int", "op_p50_us", &[90.0, 120.0, 150.0]);
        let r = &rows(&a, &noisy, &DEFS)[0];
        assert_eq!(r.verdict, Verdict::Unresolved);
        assert!(r.spread.unwrap() > 0.07);
    }

    #[test]
    fn a_single_run_has_no_spread_and_traced_runs_are_ignored() {
        let a = side("fwd-int", "op_p50_us", &[100.0]);
        let mut b = side("fwd-int", "op_p50_us", &[100.0]);
        b.push(StoredRun { trace: true, ..run("fwd-int", "op_p50_us", 900.0) });
        let r = &rows(&a, &b, &DEFS)[0];
        assert_eq!((r.spread, r.verdict, r.runs), (None, Verdict::Ok, (1, 1)));
        // A metric only one side reports gives no row.
        assert!(rows(&a, &side("fwd-int", "ops_per_s", &[1.0]), &DEFS).is_empty());
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let json = r#"{"end_to_end": [
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2},
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.03},
            {"name": "op_p50_us", "unit": "us", "better": "lower", "bound": 0.04},
            {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}]}"#;
        let defs = contract_defs(json).unwrap();
        assert_eq!(defs.iter().map(|d| d.bound).collect::<Vec<_>>(), [0.2, 0.03, 0.04, 0.05]);
        assert!(contract_defs(r#"{"end_to_end": []}"#).is_err());
    }
}
