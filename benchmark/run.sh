#!/bin/sh
# The one command: builds the benchmark offline and runs every workload,
# untraced and then traced, each in a process of its own.
#
#   benchmark/run.sh [--seed N] [--out FILE] [--smoke]
#
# Prints every metric by name with its unit and sample count, verifies
# the outputs, and writes one JSON document (default
# benchmark/out/BENCH.json) plus benchmark/out/trace_<workload>.json.
set -eu
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- all "$@"
