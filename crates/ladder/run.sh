#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Run from the root of a checkout:
# builds the release `hibd` binary and this harness from source, then hands
# the driver's arguments to the harness.
#
# The build goes through `shims/config.toml` so it works with no crate
# registry (see README, "Building offline"); every run of the benchmark is
# built this way, so numbers from different commits stay comparable.
set -euo pipefail
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path Cargo.toml \
    --config crates/ladder/shims/config.toml \
    -p hibd-cli --bin hibd -p hibd-ladder --bin bench_ladder >&2
exec "$target/release/bench_ladder" "$@"
