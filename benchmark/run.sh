#!/usr/bin/env bash
# Build the benchmark and hand it the arguments; `run.sh --help` lists the
# modes, README.md explains them. Everything is built from source, offline,
# into $CARGO_TARGET_DIR (default: benchmark/target).
set -euo pipefail
manifest="$(dirname "${BASH_SOURCE[0]}")/Cargo.toml"
if [ "${1:-}" = "--test" ]; then
    shift
    exec cargo test --release --offline --manifest-path "$manifest" "$@"
fi
exec cargo run --release --offline --quiet --manifest-path "$manifest" -- "$@"
