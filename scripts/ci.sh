#!/usr/bin/env bash
# CI gate for the workspace.
#
# 1. Tier-1 verify (see ROADMAP.md): release build + full test suite.
# 2. Robustness suite: the fault-injection matrix must pass explicitly
#    (it is part of the workspace tests too; the dedicated run makes a
#    matrix failure unmissable in CI output).
# 3. Observability gate: pse-obs unit tests, a metrics-endpoint smoke
#    test (one scrape must surface every layer), and an instrumentation
#    overhead check — repro_table1 (built here: the tier-1 build covers
#    only the root package) with the registry enabled must stay within
#    5% of a registry-disabled run.
# 4. Lint: rustfmt --check over the workspace (perfbench/ is its own
#    workspace and is not formatted here), and clippy with warnings
#    denied on the crates where we hold the bar at zero (pse-cache,
#    pse-obs, pse-xml, pse-http, pse-dbm, pse-oodb, pse-ftp, pse-dav,
#    pse-ecce, pse-cluster, pse-bench and the root package davpse
#    today). Each is skipped with a notice if its component is not
#    installed.
# 5. Adversarial wire tests: the incremental-parser matrix (trickled
#    bytes, split heads, pipelining, oversized headers, half-close)
#    runs against the reactor server inside the workspace suite; the
#    dedicated run makes a parser failure unmissable.
# 6. Figure 4 request budget: the Ecce tools' per-operation request
#    counts (one request per need; an unchanged CalcEditor save sends
#    nothing, a theory change one PROPPATCH and one PUT, a first save no
#    DELETE), counted by the server, run on their own so a tool that
#    starts asking the server more often fails visibly.
# 7. Benchmark build: builds perfbench (the committed benchmark, its own
#    Cargo workspace) and runs its unit tests, so an API change in the
#    workspace crates that breaks the benchmark fails here. Building it
#    rewrites perfbench/Cargo.lock, so the file is saved first and put
#    back afterwards, also when the tests fail.
# 8. With --stress: the concurrency stress suite across a 3-seed
#    matrix at elevated thread count, the MemRepository
#    linearizability checker, and the covered-SEARCH torn-answer
#    detector at 10x its default iterations. PSE_STRESS_OPS /
#    PSE_STRESS_THREADS / PSE_TORN_SEARCHES are honoured when set in
#    the environment.
# 9. With --c10k: the C10k gate — 1000 parked keep-alive connections
#    (override with PSE_C10K_CONNS) against a worker pool of 8 must
#    leave fresh clients fast, the staleness detector clean, and
#    shutdown prompt.
# 10. With --cluster: the replication gate — 1 primary + 2 replicas +
#    the consistent-hash router in-process, with the staleness /
#    torn-write / MOVE-atomicity detectors pointed through the router,
#    per-resource read floors (reads of documents nobody writes stay on
#    the replica while writers run), a replica-kill failover smoke, snapshot resync after log
#    compaction (histories included), the bounded change log (a write
#    storm past the byte cap with a stalled replica stays under the cap
#    and the in-memory tail bound, then the replica resyncs to
#    byte-identical histories; a cursor past the log's end gets 410),
#    the pse-cluster suites (replay convergence, commit-hook
#    logging, racing writes logged in apply order on mem and fs), the
#    DeltaV operations that run under the repository's lock plans (the
#    PUT-storm version granularity and history-follows-MOVE tests), and
#    repro_cluster --check (read throughput must rise
#    monotonically 1 -> 2 -> 4 replicas with zero failover errors).
#    PSE_CLUSTER_OPS / PSE_CLUSTER_THREADS are honoured when set.
# 11. With --bulk: the bulk-transfer gate — range/conditional-request/
#    resumable-PUT/delta-sync suites (pse-dav bulk tests + handler
#    range matrix), the gzip fault-injection round trip, and
#    repro_table2 --delta --check (a 1% edit re-PUT must move >= 10x
#    fewer bytes on the wire than the full PUT), emitting
#    target/bench-json/bulk.json.
# 12. With --versions: the DeltaV gate — the versioning compliance +
#    concurrency suite (RFC 3253 state machine, PUT-storm version
#    granularity, history immutability, read-only history resources,
#    mem/fs replay equivalence with a mid-history restart), a failed
#    history write answering 5xx, the ecce revert-a-calculation
#    scenario, the cluster history-replication/rejoin,
#    history-follows-MOVE and two-shard history-routing tests, a snapshot resync that carries
#    histories, a collection MOVE that carries its members' histories
#    (unit and cluster), and repro_versions --check (content-addressed storage
#    for 50 x 1%-edit revisions of 2 MB must cost <= 25% of full
#    snapshots, with byte-identical reads), emitting
#    target/bench-json/versions.json.
# 13. With --search: the indexed-search gate — the SEARCH correctness
#    sweep (index ≡ scan equivalence proptests over mem/fs repositories
#    and an fs repository whose commit hook feeds the change log; the
#    mem/fs battery also runs each query with a
#    DAV:select, narrowed to the named properties, and compares it with
#    the allprop scan projected onto the select, with and without the
#    property cache; the SEARCH-vs-DELETE race, gzip + fault-proxy
#    round trips, pipelined framing on one connection; covered
#    queries, answered from the index alone, against values that are
#    not plain text and a property in no namespace; the torn-answer
#    detector: a covered SEARCH racing PROPPATCH, COPY and MOVE; named
#    reads, answered from the index where it can, equal to the stored
#    values over random histories on mem, GDBM and SDBM), the
#    propindex (covered probe, plain-text flag through snapshot,
#    journal and a v1-snapshot rebuild), planner, property and fsrepo
#    unit suites (cold and warm named reads), the cluster SEARCH
#    routing tests, and repro_search --check (the planner must answer
#    selective queries over 10k calculations >= 10x faster than a
#    walk-and-scan with a byte-identical answer, and the covered query
#    must read no property), emitting target/bench-json/search.json.
set -euo pipefail
cd "$(dirname "$0")/.."

STRESS=0
C10K=0
CLUSTER=0
BULK=0
SEARCH=0
VERSIONS=0
for arg in "$@"; do
    case "$arg" in
        --stress) STRESS=1 ;;
        --c10k) C10K=1 ;;
        --cluster) CLUSTER=1 ;;
        --bulk) BULK=1 ;;
        --search) SEARCH=1 ;;
        --versions) VERSIONS=1 ;;
        *) echo "unknown argument: $arg" >&2; exit 2 ;;
    esac
done

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> workspace tests: cargo test -q --workspace"
cargo test -q --workspace

echo "==> robustness suite (fault matrix): cargo test -q --test robustness"
cargo test -q --test robustness

echo "==> observability: cargo test -q -p pse-obs"
cargo test -q -p pse-obs

echo "==> observability: metrics endpoint smoke test"
cargo test -q -p pse-dav metrics_scrape_covers_every_layer
cargo test -q -p pse-http metrics_endpoint_reflects_request_mix_pre_auth

echo "==> observability: instrumentation overhead <= 5% (repro_table1 --obs-check)"
cargo build --release -p pse-bench --bin repro_table1
./target/release/repro_table1 --obs-check

if cargo fmt --version >/dev/null 2>&1; then
    echo "==> lint: cargo fmt --all -- --check"
    cargo fmt --all -- --check
else
    echo "==> lint: rustfmt not installed, skipping"
fi

if cargo clippy --version >/dev/null 2>&1; then
    for crate in pse-cache pse-obs pse-xml pse-http pse-dbm pse-oodb pse-ftp pse-dav pse-ecce pse-cluster pse-bench davpse; do
        echo "==> lint: cargo clippy -p $crate --all-targets -- -D warnings"
        cargo clippy -p "$crate" --all-targets -- -D warnings
    done
else
    echo "==> lint: clippy not installed, skipping"
fi

echo "==> adversarial wire tests: cargo test -q -p pse-http --test adversarial"
cargo test -q -p pse-http --test adversarial

echo "==> Figure 4 request budget: cargo test -q -p pse-ecce --test tool_requests"
cargo test -q -p pse-ecce --test tool_requests

echo "==> benchmark build + unit tests: cargo test --offline --manifest-path perfbench/Cargo.toml"
perfbench_lock=$(mktemp)
cp perfbench/Cargo.lock "$perfbench_lock"
restore_perfbench_lock() {
    cp "$perfbench_lock" perfbench/Cargo.lock
    rm -f "$perfbench_lock"
}
trap restore_perfbench_lock EXIT
cargo test --offline --manifest-path perfbench/Cargo.toml
restore_perfbench_lock
trap - EXIT

if [ "$STRESS" = 1 ]; then
    : "${PSE_STRESS_OPS:=250}"
    : "${PSE_STRESS_THREADS:=6}"
    export PSE_STRESS_OPS PSE_STRESS_THREADS
    echo "==> stress: concurrency suite, 3-seed matrix (threads=$PSE_STRESS_THREADS, ops=$PSE_STRESS_OPS)"
    for seed in 1 42 20010807; do
        echo "==> stress: seed $seed"
        PSE_STRESS_SEED=$seed cargo test -q --test concurrency
    done
    echo "==> stress: MemRepository linearizability"
    cargo test -q -p pse-dav --test linearizability
    : "${PSE_TORN_SEARCHES:=200000}"
    export PSE_TORN_SEARCHES
    echo "==> stress: covered SEARCH never sees a torn mutation ($PSE_TORN_SEARCHES searches)"
    cargo test -q -p pse-dav --test search_equiv -- covered_search_never_sees_a_torn_mutation
fi

if [ "$C10K" = 1 ]; then
    : "${PSE_C10K_CONNS:=1000}"
    export PSE_C10K_CONNS
    echo "==> c10k gate: $PSE_C10K_CONNS parked connections, pool of 8"
    cargo test -q --test c10k
fi

if [ "$CLUSTER" = 1 ]; then
    : "${PSE_CLUSTER_OPS:=120}"
    : "${PSE_CLUSTER_THREADS:=3}"
    export PSE_CLUSTER_OPS PSE_CLUSTER_THREADS
    echo "==> cluster gate: replication invariants through the router (threads=$PSE_CLUSTER_THREADS, ops=$PSE_CLUSTER_OPS)"
    cargo test -q --test cluster
    echo "==> cluster gate: replay convergence, commit hook and apply-order race tests"
    cargo test -q -p pse-cluster
    echo "==> cluster gate: bounded change log (stalled-replica storm under the cap, resync, 410 past the end)"
    cargo test -q --test cluster -- stalled_replica_storm_stays_under_the_cap_and_resyncs_histories \
        compaction_forces_snapshot_resync
    cargo test -q -p pse-cluster --lib -- feed_answers_gone_when_since_is_past_the_end log::
    echo "==> cluster gate: DeltaV under the repository's lock plans"
    cargo test -q -p pse-dav --test versioning -- \
        concurrent_put_storm_yields_exactly_one_version_per_checkin history_follows_move
    echo "==> cluster gate: repro_cluster --check (monotonic read scaling + clean failover)"
    cargo build --release -p pse-bench --bin repro_cluster
    ./target/release/repro_cluster --check
fi

if [ "$BULK" = 1 ]; then
    echo "==> bulk gate: range GET / resumable PUT / delta sync suites"
    cargo test -q -p pse-dav --test bulk
    cargo test -q -p pse-dav --lib -- range_get_matrix if_range_gates_partial_responses \
        resumable_put_protocol delta_put_via_x_copy_from \
        weak_and_quoted_etag_forms_compare_correctly
    echo "==> bulk gate: gzip through the fault proxy"
    cargo test -q -p pse-http --lib gzip_coded_exchanges_survive_truncation_and_corruption
    echo "==> bulk gate: repro_table2 --delta --check (>= 10x wire-byte reduction)"
    cargo build --release -p pse-bench --bin repro_table2
    ./target/release/repro_table2 --delta --check
fi

if [ "$SEARCH" = 1 ]; then
    echo "==> search gate: property index unit suite + planner/paging/covered/property/fsrepo tests"
    cargo test -q -p pse-dav --lib -- propindex:: search:: property:: fsrepo::
    echo "==> search gate: correctness sweep (equivalence proptests, covered path and fallback, torn answers, vanish race, gzip, faults, pipelining)"
    cargo test -q -p pse-dav --test search_equiv
    echo "==> search gate: SEARCH routing + replica index coherence through the cluster"
    cargo test -q --test cluster -- search_routes_to_replicas_and_replica_indexes_agree \
        hooked_repository_index_equivalent_to_scan
    echo "==> search gate: repro_search --check (>= 10x over walk-and-scan on 10k resources; covered query reads no property)"
    cargo build --release -p pse-bench --bin repro_search
    ./target/release/repro_search --check
fi

if [ "$VERSIONS" = 1 ]; then
    echo "==> versions gate: compliance + concurrency suite"
    cargo test -q -p pse-dav --test versioning
    echo "==> versions gate: a failed history write answers 5xx"
    cargo test -q -p pse-dav --test versioning -- failed_history_writes_answer_5xx_and_a_retry_records
    echo "==> versions gate: version store unit suite"
    cargo test -q -p pse-dav --lib -- version::
    echo "==> versions gate: revert-a-calculation scenario"
    cargo test -q -p pse-ecce --test revert
    echo "==> versions gate: history replication, replica rejoin and MOVE through the cluster"
    cargo test -q --test cluster -- version_history_replicates_and_survives_rejoin \
        history_follows_move_on_every_replica history_urls_route_to_their_documents_shard
    echo "==> versions gate: resync carries histories; collection MOVE carries member histories"
    cargo test -q --test cluster -- stalled_replica_storm_stays_under_the_cap_and_resyncs_histories \
        compaction_forces_snapshot_resync collection_move_carries_member_histories_on_every_replica
    cargo test -q -p pse-dav --lib -- rename_rehomes_history collection_move_rehomes_persisted_histories \
        install_replaces_drops_and_round_trips_histories
    echo "==> versions gate: repro_versions --check (CAS <= 25% of full snapshots)"
    cargo build --release -p pse-bench --bin repro_versions
    ./target/release/repro_versions --check
fi

echo "==> ci OK"
