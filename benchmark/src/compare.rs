//! `perf_ledger compare A/ B/`: two sets of untraced result files, side by
//! side. For every workload × end-to-end metric it prints both medians with
//! their quartiles and run-to-run spread, the change of B against A, and a
//! verdict under the bound `BENCHMARK.json` fixes for the metric.

use std::collections::BTreeMap;
use std::path::Path;

use crate::contract::{self, EndToEnd};
use crate::json::{self, Json};
use crate::stats::{iqr_share, quartiles};

/// workload → metric → one value per run.
type RunSet = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// Reads every untraced result file in `dir` and its immediate
/// sub-directories (one sub-directory per run is what `repeat.sh` writes).
fn load_set(dir: &Path) -> Result<RunSet, String> {
    let list = |d: &Path| -> Result<Vec<std::path::PathBuf>, String> {
        let mut entries: Vec<_> = std::fs::read_dir(d)
            .map_err(|e| format!("read {}: {e}", d.display()))?
            .filter_map(Result::ok)
            .map(|e| e.path())
            .collect();
        entries.sort();
        Ok(entries)
    };
    let mut files = Vec::new();
    for entry in list(dir)? {
        if entry.is_dir() {
            files.extend(list(&entry)?);
        } else {
            files.push(entry);
        }
    }
    let mut set = RunSet::new();
    for path in files
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
    {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let is_untraced_run = doc.get("kind").and_then(Json::as_str) == Some("perf_ledger.run")
            && doc.get("trace").and_then(Json::as_f64) == Some(0.0);
        let (Some(workload), Some(metrics), true) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("metrics").and_then(Json::as_object),
            is_untraced_run,
        ) else {
            continue;
        };
        let by_metric = set.entry(workload.to_string()).or_default();
        for (name, metric) in metrics {
            if let Some(value) = metric.get("value").and_then(Json::as_f64) {
                by_metric.entry(name.clone()).or_default().push(value);
            }
        }
    }
    if set.is_empty() {
        return Err(format!(
            "no untraced perf_ledger result files under {}",
            dir.display()
        ));
    }
    Ok(set)
}

/// What the two sets say about one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// B's median is better by more than the spread between A's own runs.
    Better,
    /// Within the bound either way.
    Same,
    /// The run-to-run spread of a set exceeds the bound and the runs of the
    /// two sets overlap: the sets cannot tell.
    Unresolved,
}

/// How much worse B's median is than A's, as a share of A's (negative when
/// B is better).
fn worsening(metric: &EndToEnd, a: &[f64], b: &[f64]) -> f64 {
    let (ma, mb) = (quartiles(a)[1], quartiles(b)[1]);
    let change = (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    if metric.lower_is_better {
        change
    } else {
        -change
    }
}

pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let worse_by = worsening(metric, a, b);
    let goodness = |v: f64| if metric.lower_is_better { -v } else { v };
    let best = |vs: &[f64]| {
        vs.iter()
            .map(|&v| goodness(v))
            .fold(f64::NEG_INFINITY, f64::max)
    };
    let worst = |vs: &[f64]| {
        vs.iter()
            .map(|&v| goodness(v))
            .fold(f64::INFINITY, f64::min)
    };
    if iqr_share(a).max(iqr_share(b)) > metric.bound {
        // Too noisy for medians; only a clean separation of every run counts.
        return if worst(b) > best(a) {
            Verdict::Better
        } else if best(b) < worst(a) && worse_by > metric.bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > metric.bound {
        Verdict::Worse
    } else if -worse_by > iqr_share(a) {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Four decimals, or four significant digits for values too small for that.
fn number(value: f64) -> String {
    if value.abs() >= 0.01 {
        format!("{value:.4}")
    } else {
        format!("{value:.3e}")
    }
}

fn describe(values: &[f64]) -> String {
    let [q1, q2, q3] = quartiles(values).map(number);
    format!(
        "{q2:>11} [{q1:>10}, {q3:>10}] n={:<2} spread {:>5.1}%",
        values.len(),
        iqr_share(values) * 100.0
    )
}

pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<(), String> {
    let (a, b) = (load_set(a_dir)?, load_set(b_dir)?);
    println!("A = {}\nB = {}", a_dir.display(), b_dir.display());
    println!(
        "median [q1, q3] over runs; spread = (q3 - q1) / median; change = B against A, + is worse"
    );
    for metric in contract::end_to_end() {
        println!(
            "\n{} ({}, {} is better, bound {:.0}%)",
            metric.name,
            metric.unit,
            if metric.lower_is_better {
                "lower"
            } else {
                "higher"
            },
            metric.bound * 100.0
        );
        for (workload, a_metrics) in &a {
            let (Some(va), Some(vb)) = (
                a_metrics.get(&metric.name),
                b.get(workload).and_then(|m| m.get(&metric.name)),
            ) else {
                println!("  {workload:<15} missing from one set");
                continue;
            };
            println!(
                "  {workload:<15} A {}  B {}  change {:>+6.1}%  {:?}",
                describe(va),
                describe(vb),
                worsening(&metric, va, vb) * 100.0,
                verdict(&metric, va, vb)
            );
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lower(bound: f64) -> EndToEnd {
        EndToEnd {
            name: "run_wall_s".into(),
            unit: "s".into(),
            lower_is_better: true,
            bound,
        }
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let m = lower(0.10);
        let a = [1.00, 1.01, 0.99, 1.00, 1.02];
        assert_eq!(
            verdict(&m, &a, &[1.00, 1.01, 1.00, 0.99, 1.01]),
            Verdict::Same
        );
        assert_eq!(
            verdict(&m, &a, &[1.05, 1.06, 1.04, 1.05, 1.07]),
            Verdict::Same,
            "inside the bound"
        );
        assert_eq!(
            verdict(&m, &a, &[1.20, 1.21, 1.19, 1.20, 1.22]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&m, &a, &[0.90, 0.91, 0.89, 0.90, 0.92]),
            Verdict::Better
        );
        // A set that spreads 40 % cannot resolve a 10 % bound...
        let noisy = [0.8, 1.0, 1.2, 0.9, 1.1];
        assert_eq!(
            verdict(&m, &noisy, &[0.85, 1.05, 1.15, 0.95, 1.0]),
            Verdict::Unresolved
        );
        // ...unless every run of one set beats every run of the other.
        assert_eq!(
            verdict(&m, &noisy, &[0.5, 0.6, 0.7, 0.55, 0.65]),
            Verdict::Better
        );
        assert_eq!(
            verdict(&m, &noisy, &[1.5, 1.6, 1.7, 1.55, 1.65]),
            Verdict::Worse
        );
    }

    #[test]
    fn higher_is_better_flips_the_direction() {
        let m = EndToEnd {
            lower_is_better: false,
            ..lower(0.10)
        };
        let a = [100.0, 101.0, 99.0, 100.0, 102.0];
        assert_eq!(
            verdict(&m, &a, &[80.0, 81.0, 79.0, 80.0, 82.0]),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&m, &a, &[120.0, 121.0, 119.0, 120.0, 122.0]),
            Verdict::Better
        );
    }
}
