#!/usr/bin/env bash
# The repo's one benchmark. Builds `pm-server` (from the repo's workspace,
# as a user would) and the harness (this directory's own package) in
# release mode, then runs the harness:
#
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--trace 0|1]
#                    [--quick] [--aa N]
#
# Without --workload every workload runs. --trace 1 is the in-process
# per-layer run; --quick runs one round per workload; --aa N runs N full
# sets on N seeds and prints each metric's median, quartiles and spread
# against its bound (see aa.py). The last line of standard output is the
# JSON result; the exit code is non-zero when any operation failed.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

if [[ "${1:-}" == "--aa" ]]; then
    shift
    exec python3 "$here/aa.py" "$@"
fi

# The driver sets CARGO_TARGET_DIR; without it each workspace keeps its own
# target directory (the harness's is benchmark/target, see .gitignore).
server_target="${CARGO_TARGET_DIR:-$root/target}"
harness_target="${CARGO_TARGET_DIR:-$here/target}"
case "$server_target" in /*) ;; *) server_target="$PWD/$server_target" ;; esac
case "$harness_target" in /*) ;; *) harness_target="$PWD/$harness_target" ;; esac

# Build logs go to stderr: standard output carries only the results.
cargo build --release --offline --manifest-path "$root/Cargo.toml" \
    --target-dir "$server_target" -p pm-engine --bin pm-server >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" \
    --target-dir "$harness_target" >&2

# exec: the harness takes over this process, so whoever stops the script
# stops the harness, and the harness's guards stop the servers it started.
exec "$harness_target/release/pm-benchmark" \
    --server "$server_target/release/pm-server" \
    --out "$here/out" "$@"
