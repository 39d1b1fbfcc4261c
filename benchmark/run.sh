#!/usr/bin/env bash
# Builds vcbench (release, offline, locked) and runs it from the repository
# root. Every argument goes to vcbench; with none it runs all four workloads,
# untraced and then traced, with seed 42.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --locked --manifest-path benchmark/Cargo.toml
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/vcbench" "$@"
