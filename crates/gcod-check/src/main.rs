//! CLI for the workspace lint pass and the design-size ledger.
//!
//! - `cargo run -p gcod-check -- lint` — lint the whole workspace tree with
//!   crate-scoped lint applicability; exit 0 when clean, 1 otherwise.
//! - `cargo run -p gcod-check -- lint <files...>` — lint explicit files with
//!   every lint enabled (the strict scope fixtures are tested under).
//! - `cargo run -p gcod-check -- surface` — print per-crate code-line and
//!   public-item counts (the committed `SURFACE.txt`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gcod_check::{lint_file, lint_tree, surface, LintScope};

fn workspace_root() -> PathBuf {
    // crates/gcod-check → workspace root is two levels up.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crate sits two levels below the workspace root")
        .to_path_buf()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => {
            let findings = if args.len() > 1 {
                let mut all = Vec::new();
                for path in &args[1..] {
                    match lint_file(Path::new(path), LintScope::STRICT) {
                        Ok(found) => all.extend(found),
                        Err(err) => {
                            eprintln!("gcod-check: cannot read {path}: {err}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                all
            } else {
                match lint_tree(&workspace_root()) {
                    Ok(found) => found,
                    Err(err) => {
                        eprintln!("gcod-check: tree walk failed: {err}");
                        return ExitCode::FAILURE;
                    }
                }
            };
            for finding in &findings {
                eprintln!("{finding}");
            }
            if findings.is_empty() {
                println!("gcod-check: clean");
                ExitCode::SUCCESS
            } else {
                eprintln!("gcod-check: {} finding(s)", findings.len());
                ExitCode::FAILURE
            }
        }
        Some("surface") => match surface(&workspace_root()) {
            Ok(report) => {
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("gcod-check: tree walk failed: {err}");
                ExitCode::FAILURE
            }
        },
        _ => {
            eprintln!("usage: gcod-check lint [files...] | surface");
            ExitCode::FAILURE
        }
    }
}
