#!/usr/bin/env bash
# The one command: build the benchmark (release, thin LTO as in the root
# profile) and run it.
#
#   bash benchmark/run.sh                      every workload untraced, then traced;
#                                              writes benchmark/out/results.json
#   bash benchmark/run.sh --runs 3             the same, three times over
#   bash benchmark/run.sh --workload fwd-int --seed 7 --seconds 10 --trace 0
#                                              one run; its last line is the result
#   bash benchmark/run.sh compare A.json B.json
#
# --workload, --seed, --seconds, --trace and --runs pass through.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Reuse the root workspace's build cache unless the caller chose a
# target directory.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/camus-ledger" "$@"
