#!/usr/bin/env bash
# Builds the benchmark package from source and runs one workload.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The repository root's Cargo.toml is passed to cargo as a *config file*:
# its [profile.release] table then applies to this separate package, so a
# later change to the release profile is measured without editing the
# benchmark.  Build output goes to stderr; the result is the last line
# of stdout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Needs the layer crates next to it: in a directory holding only the
# benchmark this fails, as it should.
if [[ ! -f "$root/Cargo.toml" ]]; then
    echo "benchmark/run.sh: no Cargo.toml in $root: the benchmark builds against the repository's crates" >&2
    exit 3
fi

target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline \
    --manifest-path "$here/Cargo.toml" \
    --config "$root/Cargo.toml" \
    --target-dir "$target" >&2

exec "$target/release/insane-benchmark" --out "$here/out" "$@"
