#!/usr/bin/env bash
# Full offline CI gate: formatting, lints, release build, tests.
#
# The workspace has zero external dependencies (the test substrate is
# in-repo: crates/testkit), so every step below must succeed with no network
# access. --offline makes cargo enforce that.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> rustdoc (workspace, deny warnings: broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "==> xtask lint (in-repo token-level lint gate)"
cargo run --offline -q -p xtask -- lint

echo "==> cargo build --release"
cargo build --offline --release --workspace

echo "==> cargo test"
cargo test --offline --workspace -q

# These two also run in the debug sweep above; the optimized run is the
# meaningful one — the skew gate compares two timed runs whose shared
# constant work shrinks under optimization, and the allocation pins must
# hold for the code that ships.
echo "==> base-table apply gates in release: allocation pins + key-skew ratio"
cargo test --offline --release -q --test alloc_apply --test skew_gate

echo "==> crash-recovery matrix + 200-case fuzz sweep (fixed seed)"
cargo test --offline -q --test crash_recovery -- --ignored

echo "==> snapshot stress matrix (1/8/32 reader threads x 3 seeds)"
cargo test --offline -q --test snapshot_isolation -- --ignored

echo "==> snapshot interleaving sweep (64 scheduler seeds)"
cargo test --offline -q --test snapshot_interleavings -- --ignored

echo "==> change-feed suite: differential property, interleavings"
cargo test --offline -q --test property_feed --test feed_interleavings

echo "==> sharding suite: differential property + group-commit crash matrix"
cargo test --offline -q --test property_sharding --test readme_quickstart_sharding

echo "==> ojvbench: its own tests, then all eight smoke runs (own workspace; correctness gates exit non-zero)"
cargo test --offline -q --manifest-path ojvbench/Cargo.toml
cargo run --release --offline -q --manifest-path ojvbench/Cargo.toml -- --smoke

# --quick verifies every maintained view against recompute. repro writes
# only under target/, so the working tree must look the same afterwards.
echo "==> paper reproduction: repro --quick all + ablations at the root, tree unchanged"
tree_before="$(git status --porcelain)"
cargo run --offline --release -q -p ojv-bench --bin repro -- --quick all > /dev/null
cargo run --offline --release -q -p ojv-bench --bin repro -- --quick ablations > /dev/null
if [ "$(git status --porcelain)" != "$tree_before" ]; then
    echo "repro changed the working tree:" >&2
    git status --porcelain >&2
    exit 1
fi

echo "All checks passed."
