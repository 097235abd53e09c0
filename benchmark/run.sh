#!/usr/bin/env bash
# The benchmark's one command. Builds mpps-benchmark in release (offline),
# then runs it with the arguments given:
#
#   benchmark/run.sh [--seed N] [--out FILE] [--quick]      the whole suite
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#                                                           one workload
#   benchmark/run.sh compare A.json B.json                  read two results
#
# Exits non-zero when the build fails or an output check does.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo resolves a relative CARGO_TARGET_DIR against the directory it is
# run from; pin it down before anything changes directory.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

# Quiet on success so that the result stays the last line of stdout.
if ! log="$(cargo build --release --offline --locked --manifest-path "$here/Cargo.toml" 2>&1)"; then
    echo "$log" >&2
    exit 1
fi

bin="$target/release/mpps-benchmark"
if [ "${1:-}" = "compare" ]; then
    exec "$bin" "$@"
fi
exec "$bin" --out-dir "$here/out" "$@"
