#!/usr/bin/env bash
# Full offline CI gate: formatting, lints, release build, tests.
#
# The workspace has zero external dependencies (the test/bench substrate is
# in-repo: crates/testkit, crates/criterion-lite), so every step below must
# succeed with no network access. --offline makes cargo enforce that.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, deny warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

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

echo "==> change-feed fan-out panel (100k subscribers; scratch cwd keeps the committed BENCH_pr9.json)"
mkdir -p target/feedbench-ci
(cd target/feedbench-ci && ../../target/release/repro --sf 0.05 feedbench)

echo "==> sharding suite: differential property + group-commit crash matrix"
cargo test --offline -q --test property_sharding --test readme_quickstart_sharding

echo "==> shard scaling smoke (1/2 shards, quick; scratch cwd keeps the committed SF=1 artifact)"
mkdir -p target/shardbench-smoke
(cd target/shardbench-smoke && ../../target/release/repro --quick --shards 1,2 shardbench)

echo "==> ojvbench: its own tests, then all eight smoke runs (own workspace; correctness gates exit non-zero)"
cargo test --offline -q --manifest-path ojvbench/Cargo.toml
cargo run --release --offline -q --manifest-path ojvbench/Cargo.toml -- --smoke

echo "==> bench targets compile and link (criterion-lite shim)"
cargo bench --offline --no-run -p ojv-bench --features criterion

echo "All checks passed."
