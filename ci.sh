#!/bin/sh
# Repo gate: formatting, lints (warnings are errors), full test suite,
# and the bench-diff regression gate against the committed results
# baseline. Run from the repo root. Offline — no network access required.
set -eu

cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy --workspace -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc -D warnings (intra-doc links resolve)"
# A deleted or renamed item leaves dangling doc links behind; rustdoc
# reports them as warnings, which fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q -p graphcore -p simlocal -p algos -p benchharness -p distsym

echo "== cargo test --workspace"
cargo test --workspace -q

echo "== benchmark package: builds and passes its tests against these crates"
# benchmark/ is a workspace of its own (path dependencies on crates/*),
# so the workspace steps above never compile it; an API change here
# that breaks it would otherwise surface only when the benchmark runs.
# Its build goes to a target dir under the ignored /target.
CARGO_TARGET_DIR=target/benchmark-build \
    cargo test --release --offline -q --manifest-path benchmark/Cargo.toml

echo "== cargo build --examples"
# The examples are the public face of the library API; they must keep
# compiling against the Protocol / message-layer surface.
cargo build --examples -q

echo "== --list on every suite binary (spec tables resolve and print)"
# --list resolves every declared experiment against the algorithm
# registry and exits 0; a missing algorithm name or malformed spec
# table dies here before any expensive run.
cargo build --release -q -p benchharness
# Every binary's --list also enumerates the execution backends.
for bin in table1 table2 figures scenarios ablations trace perf bench-diff; do
    ./target/release/"$bin" --list > /dev/null
done

echo "== smoke: table1 --quick --seeds 1"
# One-seed quick sweeps of the two row-heavy suites: exercises the
# registry construct→run→verify→Row path for every Table-1 algorithm
# and the figure experiments (including the custom F.1/F.2 checks),
# with each binary's own bound checks enforcing validity.
./target/release/table1 --quick --seeds 1 > /dev/null

echo "== smoke: figures --quick --seeds 1"
./target/release/figures --quick --seeds 1 > /dev/null

echo "== regression gate: table2 --quick vs committed baseline"
# table2 is the cheapest harness binary (~10 s with this sweep); it also
# enforces its own bound checks (validity, palette caps, flat VA) and
# exits nonzero on violation. The flags must match the committed
# baseline's configuration exactly.
./target/release/table2 --quick --seeds 2 --ids identity,random \
    --json target/ci-results/table2.quick.json > /dev/null
./target/release/bench-diff --check \
    results/table2.quick.json target/ci-results/table2.quick.json

echo "== ingestion smoke: table2 T2.1f runs a file graph source end-to-end"
# T2.1f ingests testdata/road_excerpt.txt through graphcore::io (sniff →
# parse → normalize → CSR) and runs both MIS protocols on it; its rows
# also ride in the table2 quick baseline above, so ingested results are
# drift-gated like every generated workload. This isolated run makes a
# parser/normalizer break fail by name rather than inside the diff.
./target/release/table2 --quick --seeds 1 T2.1f > /dev/null

echo "== dynamic-mode smoke: scenarios D.1 D.1x D.2 warm-start churn + locality bounds"
# Each churn batch warm-starts from the recorded cold run, re-stepping
# only the vertices whose inputs the edit changed; the binary enforces
# the UpdateLocality bounds (worst reactivated fraction per batch) and
# exits nonzero if the engine fell back to a full re-solve. An id
# filter selects itself and its dotted children, so D.1x is named too.
# The warm ≡ cold identity itself is proptest-pinned in the test suite
# (crates/bench/tests/dynamic_identity.rs) run by the workspace wall.
./target/release/scenarios --quick --seeds 2 --ids identity,random D.1 D.1x D.2 > /dev/null

echo "== actor-backend smoke: table2 --quick --backend actor vs the same baseline"
# The actor backend is pinned byte-identical to the sync engine, so its
# rows must match the *sync* baseline exactly — tol 0, not the drift
# tolerance (wall-clock stats are excluded from the check either way).
./target/release/table2 --quick --seeds 2 --ids identity,random --backend actor \
    --json target/ci-results/table2.quick.actor.json > /dev/null
./target/release/bench-diff --check \
    results/table2.quick.json target/ci-results/table2.quick.actor.json --tol 0

echo "== metrics smoke: table2 --quick --metrics, self-validated JSONL export"
# A metrics-enabled quick sweep on the actor backend (per-shard series
# plus transport counters), then the export validates itself: every
# snapshot line schema-valid and free of repeated keys, histogram
# buckets adding up to their counts, counters monotone across lines.
# Attaching --metrics must not change results, so the rows still gate
# against the sync baseline at tol 0.
./target/release/table2 --quick --seeds 2 --ids identity,random --backend actor \
    --metrics target/ci-results/obs.jsonl \
    --json target/ci-results/table2.quick.metrics.json > /dev/null
./target/release/bench-diff --check \
    results/table2.quick.json target/ci-results/table2.quick.metrics.json --tol 0
./target/release/bench-diff --metrics-check target/ci-results/obs.jsonl

echo "== parallel-scheduler gate: table2 --jobs 4 is byte-identical to the baseline"
# The trial pipeline's determinism guarantee, end to end: a 4-worker run
# of the same sweep must produce byte-identical results JSON to the
# committed *sequential* baseline (tol 0 — wall-clock stats excluded as
# always). The attached metrics export also revalidates (monotone
# counters across snapshots) with the scheduler/cache counters and
# histograms present.
./target/release/table2 --quick --seeds 2 --ids identity,random --jobs 4 \
    --metrics target/ci-results/obs.jobs4.jsonl \
    --json target/ci-results/table2.quick.jobs4.json > /dev/null
./target/release/bench-diff --check \
    results/table2.quick.json target/ci-results/table2.quick.jobs4.json --tol 0
./target/release/bench-diff --metrics-check target/ci-results/obs.jobs4.jsonl

echo "== transport smoke: loopback-TCP round-trip pins to the sync engine"
# Framed codec messages over real sockets: the fixed-config TCP tests
# from the actor-backend suite, runnable in isolation so a transport
# break is named here rather than inside the workspace test wall.
cargo test -q -p simlocal --test actor_backend tcp > /dev/null

echo "== distsym smoke: the CLI lists and runs through the algorithm registry"
# `distsym run` dispatches every algorithm through the registry and `list`
# is derived from it; the binary-driving tests (list, one --json run per
# problem and procedure, usage-error exit codes, graph export re-ingest)
# run in isolation so a CLI/registry break is named here.
cargo build --release -q
./target/release/distsym list > /dev/null
cargo test -q --test cli > /dev/null

echo "== trace smoke: export + self-validate JSONL, Chrome-trace and metrics"
# Runs a small randomized-coloring workload and exports its round log;
# the binary re-reads both artifacts and exits nonzero unless they parse,
# Chrome-trace timestamps are monotone, the recorded rounds, steps,
# per-phase steps and terminations match the engine's statistics, and
# the active-set series passes the Lemma 6.1 geometric-decay check. The
# attached --metrics export then validates itself like the suite exports
# above.
./target/release/trace --algo rand_delta_plus_one --n 4096 --a 2 --seed 1 \
    --out target/ci-trace --metrics target/ci-trace/obs.jsonl > /dev/null
test -s target/ci-trace/trace.jsonl
test -s target/ci-trace/trace.chrome.json
./target/release/bench-diff --metrics-check target/ci-trace/obs.jsonl

echo "== actor trace smoke: the actor merge's round records equal the sync engine's"
# The same run on two actor shards, whose coordinator sums the shards'
# per-round records: with the machine-dependent wall time stripped, its
# JSONL must be byte-identical to the sync run's above.
./target/release/trace --algo rand_delta_plus_one --n 4096 --a 2 --seed 1 \
    --backend actor:2 --out target/ci-trace-actor \
    --metrics target/ci-trace-actor/obs.jsonl > /dev/null
./target/release/bench-diff --metrics-check target/ci-trace-actor/obs.jsonl
for dir in target/ci-trace target/ci-trace-actor; do
    sed 's/,"wall_us":[0-9]*//' "$dir/trace.jsonl" > "$dir/trace.counts.jsonl"
done
test -s target/ci-trace/trace.counts.jsonl
cmp target/ci-trace/trace.counts.jsonl target/ci-trace-actor/trace.counts.jsonl

echo "== congest audit: per-algorithm message-width claims"
# Runs every registry algorithm once and checks each declared CONGEST
# width claim (max message ≤ c·log₂ n bits) against the engine's
# measured widest message; exits nonzero if any claim is violated.
./target/release/trace --congest-audit --n 2048 --a 2 --seed 1 > /dev/null

echo "== perf gate: engine throughput vs committed trajectory baseline"
# Fresh n = 2^20 suite run compared one-sided against the committed
# trajectory point: a >25% vertex-rounds/sec drop on any entry fails;
# improvements print as a cue to refresh the baseline (EXPERIMENTS.md
# has the procedure).
# Best-of-5 is what makes the number stable on a shared machine; fewer
# reps let one descheduled run masquerade as a regression.
#
# Two defenses against false positives on loaded machines (EXPERIMENTS.md
# documents the policy):
#   - PERF_GATE_TOL widens the default 0.25 tolerance without editing
#     this script (bench-diff reads it when --tol is not given);
#   - a failing gate is re-measured once before failing the build —
#     transient load fails one run, a real regression fails both.
perf_gate() {
    ./target/release/perf --reps 5 \
        --json target/ci-results/BENCH_engine.json > /dev/null &&
        ./target/release/bench-diff --perf \
            results/BENCH_engine.json target/ci-results/BENCH_engine.json
}
if ! perf_gate; then
    echo "perf gate failed; re-measuring once to rule out transient machine load"
    perf_gate
fi

echo "CI gate passed."
