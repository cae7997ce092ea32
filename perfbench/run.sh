#!/usr/bin/env bash
# Builds the release `wcoj-server` binary and the benchmark program from
# this checkout, then runs it:
#
#   bash perfbench/run.sh --workload analytics|lookups|ingest \
#       --seed N --seconds S --trace 0|1 [--quick]
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the JSON result.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/server || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of a wcoj checkout (crates/server not found)" >&2
    exit 2
fi

# Both builds share one target directory (the server's default).
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
target="$CARGO_TARGET_DIR"
cargo build --release --offline -q -p wcoj-server >&2
cargo build --release --offline -q --manifest-path perfbench/Cargo.toml >&2

if commit="$(git rev-parse HEAD 2>/dev/null)"; then
    :
else
    # Not a git checkout: identify the sources by content instead.
    commit="src-$(find Cargo.toml Cargo.lock crates src perfbench -type f \
        \( -name '*.rs' -o -name '*.toml' -o -name '*.lock' -o -name '*.sh' \) \
        -not -path '*/target/*' -print0 | sort -z | xargs -0 sha256sum | sha256sum | cut -c1-16)"
fi

exec "$target/release/perfbench" \
    --server-bin "$target/release/wcoj-server" \
    --commit "$commit" \
    --rustc "$(rustc -V)" \
    "$@"
