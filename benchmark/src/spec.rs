//! `BENCHMARK.json` as the benchmark reads it: the one declaration of which
//! metrics exist, their units, their direction and their regression bounds.
//! The runner emits exactly the declared metrics and `compare` judges by the
//! declared bounds, so the file and the program cannot drift apart.

use crate::host;
use crate::json::Json;
use std::path::PathBuf;

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn field<'a>(value: &'a Json, key: &str) -> Result<&'a Json, String> {
    value
        .get(key)
        .ok_or_else(|| format!("BENCHMARK.json: missing `{key}`"))
}

fn text(value: &Json, key: &str) -> Result<String, String> {
    field(value, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a string"))
}

fn metrics(doc: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    field(doc, key)?
        .as_arr()
        .ok_or_else(|| format!("BENCHMARK.json: `{key}` is not a list"))?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                lower_is_better: match text(m, "better")?.as_str() {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("BENCHMARK.json: better = `{other}`")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    pub fn parse(text_of_file: &str) -> Result<Spec, String> {
        let doc = Json::parse(text_of_file).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        Ok(Spec {
            run_seconds: field(&doc, "run_seconds")?
                .as_f64()
                .ok_or("BENCHMARK.json: `run_seconds` is not a number")?,
            workloads: field(&doc, "workloads")?
                .as_arr()
                .ok_or("BENCHMARK.json: `workloads` is not a list")?
                .iter()
                .map(|w| text(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// Reads `BENCHMARK.json` from the working directory (where the driver
    /// runs the command) or, failing that, from beside the package.
    pub fn load() -> Result<Spec, String> {
        let candidates = [
            PathBuf::from("BENCHMARK.json"),
            host::package_dir().join("../BENCHMARK.json"),
        ];
        let text_of_file = candidates
            .iter()
            .find_map(|path| std::fs::read_to_string(path).ok())
            .ok_or("BENCHMARK.json not found in the working directory or beside benchmark/")?;
        Spec::parse(&text_of_file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::WORKLOADS;

    #[test]
    fn the_committed_file_declares_the_workloads_this_binary_runs() {
        let spec = Spec::load().expect("BENCHMARK.json at the repo root");
        assert_eq!(spec.workloads, WORKLOADS);
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert!(setup.lower_is_better && setup.unit == "s");
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = spec
            .end_to_end
            .iter()
            .chain(&spec.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used once");
    }
}
