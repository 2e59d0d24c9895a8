#!/usr/bin/env bash
# The benchmark's one command. Builds the server binary (root workspace)
# and the harness (this package) with --release into one target directory,
# then runs the harness from the repository root with the arguments given.
# Fails, before measuring anything, wherever the repository is not around it.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p proust-server --bin proust-server >&2
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/proust-benchmark" "$@"
