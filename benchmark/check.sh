#!/usr/bin/env bash
# The benchmark's own acceptance: unit tests, a quick pass over every
# workload in both modes (schema and output checks only, under a minute),
# then two full ten-seed sets of the same build, which must agree within
# the bounds. Result files go to the directory given as $1
# (default benchmark/results, which git ignores).
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-benchmark/results}

bench() {
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}

cargo test --release --offline --quiet --manifest-path benchmark/Cargo.toml
bench run --quick --trace 0
bench run --quick --trace 1
bench run --runs 10 --seed 1 --out "$out/set-a.json"
bench run --runs 10 --seed 1 --out "$out/set-b.json"
bench compare "$out/set-a.json" "$out/set-b.json"
