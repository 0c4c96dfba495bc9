//! `BENCHMARK.json`, compiled in: the names, units, directions and bounds
//! this program must emit are the ones the driver reads, so `compare` takes
//! its bounds from here and a traced run checks its metric names against it.

use crate::json::{self, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

fn document() -> Json {
    json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON")
}

fn text(entry: &Json, key: &str) -> String {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("string field {key:?}"))
        .to_string()
}

fn entries(key: &str) -> Vec<Json> {
    document()
        .get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("array {key:?}"))
        .to_vec()
}

/// An end-to-end metric as declared.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

pub fn end_to_end() -> Vec<EndToEnd> {
    entries("end_to_end")
        .iter()
        .map(|m| EndToEnd {
            name: text(m, "name"),
            unit: text(m, "unit"),
            lower_is_better: text(m, "better") == "lower",
            bound: m.get("bound").and_then(Json::as_f64).expect("bound"),
        })
        .collect()
}

/// `(name, unit)` of every declared per-layer metric, in declaration order.
pub fn per_layer() -> Vec<(String, String)> {
    entries("per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn is_name(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
        (1..=64).contains(&s.len())
            && s.chars().all(ok)
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    fn is_unit(s: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
        (1..=16).contains(&s.len()) && s.chars().all(ok)
    }

    #[test]
    fn every_declared_name_and_unit_is_well_formed_and_used_once() {
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        for m in end_to_end() {
            assert!(is_unit(&m.unit), "{} unit {:?}", m.name, m.unit);
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
            names.push(m.name);
        }
        for (name, unit) in per_layer() {
            assert!(is_unit(&unit), "{name} unit {unit:?}");
            names.push(name);
        }
        for name in &names {
            assert!(is_name(name), "{name:?} is not [A-Za-z0-9][A-Za-z0-9_.-]*");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!((1..=16).contains(&end_to_end().len()) && (1..=128).contains(&per_layer().len()));
        assert!(BENCHMARK_JSON.len() <= 64 * 1024);
    }

    #[test]
    fn setup_s_is_declared_with_the_largest_bound() {
        let metrics = end_to_end();
        let setup = metrics
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit.as_str(), setup.lower_is_better), ("s", true));
        assert!(metrics.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn declared_workloads_and_run_length_are_the_programs() {
        let declared: Vec<(String, String)> = entries("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let ours: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), w.why.to_string()))
            .collect();
        assert_eq!(declared, ours);
        assert!(ours
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));
        let run_seconds = document()
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds");
        assert_eq!(run_seconds, crate::DEFAULT_SECONDS);
        assert!((1.0..=60.0).contains(&run_seconds) && run_seconds.fract() == 0.0);
    }

    #[test]
    fn the_document_has_exactly_the_contract_keys() {
        let keys: Vec<String> = document()
            .as_object()
            .expect("object")
            .iter()
            .map(|(k, _)| k.clone())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
