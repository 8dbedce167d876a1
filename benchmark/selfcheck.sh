#!/usr/bin/env bash
# The benchmark package's own gate: smoke-runs every workload in quick mode
# (untraced and traced), then the harness unit tests, formatting and lints.
# Run from anywhere; builds into the package's own target directory unless
# CARGO_TARGET_DIR is set.
set -euo pipefail
cd "$(dirname "$0")/.."
manifest=benchmark/Cargo.toml

echo "== quick mode, end-to-end metrics"
cargo run --quiet --release --offline --manifest-path "$manifest" -- --quick --trace 0 > /dev/null
echo "== quick mode, per-layer metrics"
cargo run --quiet --release --offline --manifest-path "$manifest" -- --quick --trace 1 > /dev/null
echo "== unit tests"
cargo test --quiet --offline --manifest-path "$manifest"
echo "== cargo fmt --check"
cargo fmt --manifest-path "$manifest" -- --check
echo "== cargo clippy -D warnings"
cargo clippy --quiet --offline --manifest-path "$manifest" --all-targets -- -D warnings
echo "selfcheck ok"
