//! The CI perf-regression gate: compares freshly measured smoke-mode bench
//! medians against the committed repo-root `BENCH_*.json` trajectory.
//!
//! The committed bench summaries (`BENCH_spmm.json`, `BENCH_train.json`,
//! `BENCH_serve.json`, `BENCH_shard.json`) record the cross-PR perf
//! trajectory, but a file
//! nobody reads protects nothing. The `bench_gate` binary re-runs the sweeps
//! of [`crate::sweeps`] in smoke mode and fails CI when any per-benchmark
//! median regressed beyond a tolerance — making CI the guardian of the
//! trajectory.
//!
//! The tolerance is deliberately generous and configurable: `BENCH_GATE_TOL`
//! is the allowed *fractional slowdown* (default `DEFAULT_TOLERANCE`), so
//! `tol = 2.0` fails a row only when the fresh median exceeds `3×` the
//! committed one. Noisy shared runners should raise it; regressions an order
//! of magnitude deep still get caught.

use std::fmt::Write as _;

/// Default allowed fractional slowdown (fail above `committed × (1 + tol)`).
pub(crate) const DEFAULT_TOLERANCE: f64 = 2.0;

/// Resolves a `BENCH_GATE_TOL`-style setting: unset, empty or unparsable
/// values select [`DEFAULT_TOLERANCE`]; explicit non-negative numbers are
/// honoured as-is.
pub(crate) fn tolerance_from(value: Option<&str>) -> f64 {
    value
        .map(str::trim)
        .filter(|v| !v.is_empty())
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|&t| t.is_finite() && t >= 0.0)
        .unwrap_or(DEFAULT_TOLERANCE)
}

/// Reads the gate tolerance from the `BENCH_GATE_TOL` environment variable.
pub fn tolerance_from_env() -> f64 {
    tolerance_from(std::env::var("BENCH_GATE_TOL").ok().as_deref())
}

/// Which way a gated metric improves. Wall-clock medians regress upward;
/// relative columns (`speedup_over_naive`, `bytes_moved_ratio`) regress
/// downward.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Direction {
    /// Smaller measured values are better (latencies, medians).
    #[default]
    LowerIsBetter,
    /// Larger measured values are better (speedup ratios).
    HigherIsBetter,
}

/// One compared benchmark row.
#[derive(Debug, Clone, PartialEq)]
pub struct GateRow {
    /// Row key (e.g. `spmm/naive-csr/30000`).
    pub key: String,
    /// The committed trajectory median.
    pub committed: f64,
    /// The freshly measured median.
    pub measured: f64,
    /// Which way this row's metric improves.
    pub direction: Direction,
}

impl GateRow {
    /// The regression factor, oriented so `> 1` always means "worse than
    /// committed": measured/committed for lower-is-better metrics,
    /// committed/measured for higher-is-better ones. A zero denominator
    /// yields 1 when both sides are zero and ∞ otherwise.
    pub fn ratio(&self) -> f64 {
        let (numerator, denominator) = match self.direction {
            Direction::LowerIsBetter => (self.measured, self.committed),
            Direction::HigherIsBetter => (self.committed, self.measured),
        };
        if denominator > 0.0 {
            numerator / denominator
        } else if numerator == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    }
}

/// Outcome of gating one bench file.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Human-readable name of the gated trajectory (e.g. `BENCH_spmm.json`).
    pub name: String,
    /// Every row present in both the committed file and the fresh sweep.
    pub rows: Vec<GateRow>,
    /// Committed keys the fresh sweep did not produce — a stale trajectory
    /// file (counts as failure: re-run the bench and commit the new file).
    pub missing: Vec<String>,
    /// The allowed fractional slowdown.
    pub tolerance: f64,
}

impl GateOutcome {
    /// Rows whose measured median exceeds `committed × (1 + tolerance)`.
    pub(crate) fn regressions(&self) -> Vec<&GateRow> {
        self.rows
            .iter()
            .filter(|row| row.ratio() > 1.0 + self.tolerance)
            .collect()
    }

    /// Whether the gate passes: no regressions and no stale committed rows.
    pub fn passed(&self) -> bool {
        self.regressions().is_empty() && self.missing.is_empty()
    }

    /// Renders the per-row delta table (status `ok` / `REGRESSED`), the
    /// missing keys, and the verdict line.
    pub fn render_table(&self) -> String {
        let limit = 1.0 + self.tolerance;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} (tolerance: fail above a {limit:.2}x regression factor)",
            self.name
        );
        let key_width = self
            .rows
            .iter()
            .map(|r| r.key.len())
            .chain(std::iter::once("benchmark".len()))
            .max()
            .unwrap_or(9);
        let _ = writeln!(
            out,
            "  {:key_width$}  {:>14}  {:>14}  {:>7}  status",
            "benchmark", "committed", "measured", "ratio"
        );
        for row in &self.rows {
            let status = if row.ratio() > limit {
                "REGRESSED"
            } else {
                "ok"
            };
            let _ = writeln!(
                out,
                "  {:key_width$}  {:>14.1}  {:>14.1}  {:>6.2}x  {status}",
                row.key,
                row.committed,
                row.measured,
                row.ratio()
            );
        }
        for key in &self.missing {
            let _ = writeln!(
                out,
                "  {key}: committed but not measured — stale trajectory file?"
            );
        }
        let verdict = if self.passed() { "PASS" } else { "FAIL" };
        let _ = writeln!(
            out,
            "  => {verdict} ({} rows, {} regressed, {} missing)",
            self.rows.len(),
            self.regressions().len(),
            self.missing.len()
        );
        out
    }
}

/// Compares a committed trajectory against freshly measured medians. Rows
/// are matched by key; fresh rows without a committed counterpart are
/// ignored (new benchmarks are additive until their trajectory is
/// committed), committed rows without a fresh counterpart are reported as
/// [`GateOutcome::missing`].
pub fn compare(
    name: &str,
    committed: &[(String, f64)],
    measured: &[(String, f64)],
    tolerance: f64,
    direction: Direction,
) -> GateOutcome {
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for (key, committed_value) in committed {
        match measured.iter().find(|(k, _)| k == key) {
            Some((_, measured_value)) => rows.push(GateRow {
                key: key.clone(),
                committed: *committed_value,
                measured: *measured_value,
                direction,
            }),
            None => missing.push(key.clone()),
        }
    }
    GateOutcome {
        name: name.to_string(),
        rows,
        missing,
        tolerance,
    }
}

/// Parses a bench summary JSON (an array of flat objects with string and
/// number fields — the exact shape [`crate::write_bench_summary`] emits)
/// into `(key, value)` rows: the key is `prefix/` plus the named key fields
/// joined with `/`, the value is the named number field.
///
/// This is a purpose-built reader for the workspace's own bench files, not
/// a general JSON parser (the vendored serde shim has no deserializer).
///
/// # Errors
///
/// Returns a description of the first malformed object or missing field.
pub fn parse_bench_rows(
    json: &str,
    prefix: &str,
    key_fields: &[&str],
    value_field: &str,
) -> Result<Vec<(String, f64)>, String> {
    let mut rows = Vec::new();
    for object in split_objects(json)? {
        let fields = parse_flat_object(&object)?;
        let mut key = String::from(prefix);
        for field in key_fields {
            let value = fields
                .iter()
                .find(|(name, _)| name == field)
                .map(|(_, v)| v.clone())
                .ok_or_else(|| format!("row missing key field `{field}`: {object}"))?;
            key.push('/');
            key.push_str(value.trim_matches('"'));
        }
        let value = fields
            .iter()
            .find(|(name, _)| name == value_field)
            .ok_or_else(|| format!("row missing value field `{value_field}`: {object}"))?
            .1
            .parse::<f64>()
            .map_err(|e| format!("non-numeric `{value_field}`: {e}"))?;
        rows.push((key, value));
    }
    Ok(rows)
}

/// Splits a `[ {..}, {..} ]` array into its `{..}` object substrings.
fn split_objects(json: &str) -> Result<Vec<String>, String> {
    let trimmed = json.trim();
    if !trimmed.starts_with('[') || !trimmed.ends_with(']') {
        return Err("bench summary must be a JSON array".to_string());
    }
    let mut objects = Vec::new();
    let mut depth = 0usize;
    let mut start = None;
    for (i, c) in trimmed.char_indices() {
        match c {
            '{' => {
                if depth == 0 {
                    start = Some(i);
                }
                depth += 1;
            }
            '}' => {
                depth = depth
                    .checked_sub(1)
                    .ok_or_else(|| "unbalanced braces in bench summary".to_string())?;
                if depth == 0 {
                    let s = start.take().ok_or("unbalanced braces")?;
                    objects.push(trimmed[s..=i].to_string());
                }
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err("unbalanced braces in bench summary".to_string());
    }
    Ok(objects)
}

/// Parses `{"a": 1, "b": "x"}` into `[("a", "1"), ("b", "\"x\"")]`.
fn parse_flat_object(object: &str) -> Result<Vec<(String, String)>, String> {
    let inner = object
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("not an object: {object}"))?;
    let mut fields = Vec::new();
    for pair in split_top_level_commas(inner) {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (name, value) = pair
            .split_once(':')
            .ok_or_else(|| format!("malformed field `{pair}`"))?;
        fields.push((
            name.trim().trim_matches('"').to_string(),
            value.trim().to_string(),
        ));
    }
    Ok(fields)
}

/// Splits on commas outside quoted strings.
fn split_top_level_commas(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut current = String::new();
    let mut in_string = false;
    for c in s.chars() {
        match c {
            '"' => {
                in_string = !in_string;
                current.push(c);
            }
            ',' if !in_string => {
                parts.push(std::mem::take(&mut current));
            }
            _ => current.push(c),
        }
    }
    parts.push(current);
    parts
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"[
  {"kernel": "naive-csr", "nodes": 500, "median_ns": 22317, "speedup_over_naive": 1.000},
  {"kernel": "tiled-csr", "nodes": 500, "median_ns": 22016, "speedup_over_naive": 1.014}
]
"#;

    fn rows(values: &[(&str, f64)]) -> Vec<(String, f64)> {
        values.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn parses_committed_bench_rows() {
        let parsed = parse_bench_rows(SAMPLE, "spmm", &["kernel", "nodes"], "median_ns").unwrap();
        assert_eq!(
            parsed,
            rows(&[
                ("spmm/naive-csr/500", 22317.0),
                ("spmm/tiled-csr/500", 22016.0)
            ])
        );
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse_bench_rows("not json", "x", &[], "v").is_err());
        assert!(parse_bench_rows("[{\"a\" 1}]", "x", &["a"], "a").is_err());
        assert!(parse_bench_rows(SAMPLE, "spmm", &["missing"], "median_ns").is_err());
        assert!(parse_bench_rows(SAMPLE, "spmm", &["kernel"], "missing").is_err());
        assert!(parse_bench_rows("[{", "x", &[], "v").is_err());
    }

    #[test]
    fn gate_passes_at_parity_and_on_improvements() {
        let committed = rows(&[("a", 100.0), ("b", 50.0)]);
        let measured = rows(&[("a", 100.0), ("b", 10.0), ("new-row", 5.0)]);
        let outcome = compare("test", &committed, &measured, 0.5, Direction::LowerIsBetter);
        assert!(outcome.passed());
        assert!(outcome.regressions().is_empty());
        assert!(outcome.missing.is_empty());
        assert_eq!(outcome.rows.len(), 2, "extra fresh rows are additive");
    }

    #[test]
    fn gate_fails_on_an_injected_regression() {
        // Tolerance 0.5 allows up to 1.5x; inject a 2x slowdown on one row.
        let committed = rows(&[("spmm/naive-csr/500", 100.0), ("spmm/tiled-csr/500", 80.0)]);
        let measured = rows(&[("spmm/naive-csr/500", 200.0), ("spmm/tiled-csr/500", 80.0)]);
        let outcome = compare(
            "BENCH_spmm.json",
            &committed,
            &measured,
            0.5,
            Direction::LowerIsBetter,
        );
        assert!(!outcome.passed());
        let regressed = outcome.regressions();
        assert_eq!(regressed.len(), 1);
        assert_eq!(regressed[0].key, "spmm/naive-csr/500");
        assert_eq!(regressed[0].ratio(), 2.0);
        // A slowdown just inside tolerance passes.
        let borderline = rows(&[("spmm/naive-csr/500", 149.0), ("spmm/tiled-csr/500", 80.0)]);
        assert!(compare("x", &committed, &borderline, 0.5, Direction::LowerIsBetter).passed());
    }

    #[test]
    fn gate_fails_on_an_injected_speedup_collapse() {
        // Relative columns regress *downward*: a committed 2x speedup that
        // measures at 0.9x is a 2.22x regression factor — beyond a 0.5
        // tolerance (1.5x limit) — while an improved speedup passes.
        let committed = rows(&[
            ("spmm-rel/tiled-csr/2000", 2.0),
            ("spmm-rel/degree-binned/2000", 1.5),
        ]);
        let collapsed = rows(&[
            ("spmm-rel/tiled-csr/2000", 0.9),
            ("spmm-rel/degree-binned/2000", 1.5),
        ]);
        let outcome = compare(
            "BENCH_spmm.json (relative)",
            &committed,
            &collapsed,
            0.5,
            Direction::HigherIsBetter,
        );
        assert!(!outcome.passed());
        let regressed = outcome.regressions();
        assert_eq!(regressed.len(), 1);
        assert_eq!(regressed[0].key, "spmm-rel/tiled-csr/2000");
        assert!((regressed[0].ratio() - 2.0 / 0.9).abs() < 1e-12);
        // A *higher* measured speedup is an improvement, never a regression.
        let improved = rows(&[
            ("spmm-rel/tiled-csr/2000", 4.0),
            ("spmm-rel/degree-binned/2000", 3.0),
        ]);
        assert!(compare("x", &committed, &improved, 0.5, Direction::HigherIsBetter).passed());
        // A measured speedup of zero (kernel now slower than measurable)
        // is an unbounded regression, not a division crash.
        let dead = rows(&[
            ("spmm-rel/tiled-csr/2000", 0.0),
            ("spmm-rel/degree-binned/2000", 1.5),
        ]);
        let outcome = compare("x", &committed, &dead, 0.5, Direction::HigherIsBetter);
        assert!(outcome.regressions()[0].ratio().is_infinite());
    }

    #[test]
    fn stale_committed_rows_fail_the_gate() {
        let committed = rows(&[("a", 100.0), ("gone", 10.0)]);
        let measured = rows(&[("a", 100.0)]);
        let outcome = compare("test", &committed, &measured, 1.0, Direction::LowerIsBetter);
        assert!(!outcome.passed());
        assert_eq!(outcome.missing, vec!["gone".to_string()]);
    }

    #[test]
    fn delta_table_names_the_regressed_rows() {
        let committed = rows(&[("fast", 100.0), ("slow", 100.0)]);
        let measured = rows(&[("fast", 90.0), ("slow", 500.0)]);
        let outcome = compare(
            "BENCH_train.json",
            &committed,
            &measured,
            1.0,
            Direction::LowerIsBetter,
        );
        let table = outcome.render_table();
        assert!(table.contains("BENCH_train.json"));
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("slow"));
        assert!(table.contains("5.00x"));
        assert!(table.contains("FAIL"));
        let ok = compare("t", &committed, &committed, 1.0, Direction::LowerIsBetter).render_table();
        assert!(ok.contains("PASS"));
    }

    #[test]
    fn tolerance_parsing_falls_back_to_the_generous_default() {
        assert_eq!(tolerance_from(None), DEFAULT_TOLERANCE);
        assert_eq!(tolerance_from(Some("")), DEFAULT_TOLERANCE);
        assert_eq!(tolerance_from(Some("garbage")), DEFAULT_TOLERANCE);
        assert_eq!(tolerance_from(Some("-1")), DEFAULT_TOLERANCE);
        assert_eq!(tolerance_from(Some("4.0")), 4.0);
        assert_eq!(tolerance_from(Some(" 0.25 ")), 0.25);
    }

    #[test]
    fn zero_committed_values_do_not_divide_by_zero() {
        let row = GateRow {
            key: "z".into(),
            committed: 0.0,
            measured: 0.0,
            direction: Direction::LowerIsBetter,
        };
        assert_eq!(row.ratio(), 1.0);
        let row = GateRow {
            key: "z".into(),
            committed: 0.0,
            measured: 5.0,
            direction: Direction::LowerIsBetter,
        };
        assert!(row.ratio().is_infinite());
    }
}
