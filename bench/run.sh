#!/usr/bin/env bash
# Build (release) and run the pipeline benchmark from the repository root
# or from anywhere inside it. Arguments go to the binary unchanged:
#
#   bench/run.sh                              every workload, untraced then traced
#   bench/run.sh --reps 5 --out set-a.json    the same, five seeds per workload
#   bench/run.sh --smoke                      ~1/50 of the operations, all checks on
#   bench/run.sh --workload replay_mtu --seed 7 --seconds 12 --trace 1
#   bench/run.sh compare set-a.json set-b.json
#
# Cargo's own output goes to stderr; stdout carries only the benchmark's.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
exec cargo run --release --offline --quiet --manifest-path bench/Cargo.toml -- "$@"
