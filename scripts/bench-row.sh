#!/usr/bin/env bash
# Measures one row of BENCH_history.jsonl and prints it on stdout:
#
#   scripts/bench-row.sh > row.json       # measure
#   scripts/bench-row.sh >> BENCH_history.jsonl   # append a history row
#
# For every workload BENCHMARK.json lists, runs perfbench at seed 1 once
# untraced and once traced, and fails unless every run reports
# "correct": true. Per workload, the row holds the four end-to-end
# metrics of the untraced run, the traced run's bench.host_speed, and the
# traced run's exact counters: every ooo.*, mem.*, core.*, checker.*,
# faults.*, store.* and alloc.* metric whose unit is not ms or ns/instr.
# Counters are simulated quantities or counts of deterministic work, so
# they do not depend on --seconds, the host or PARADET_THREADS.
#
# perfbench's own output goes to stderr. Needs cargo and jq.
set -euo pipefail

cd "$(dirname "$0")/.."
logs=$(mktemp -d)
trap 'rm -rf "$logs"' EXIT

perfbench() {
    local workload=$1 trace=$2 seconds=$3 log="$logs/$1-$2.txt"
    echo "== perfbench --workload $workload --seed 1 --seconds $seconds --trace $trace" >&2
    cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds "$seconds" --trace "$trace" | tee "$log" >&2
    if ! tail -n 1 "$log" | jq -e '.correct == true' > /dev/null; then
        echo "bench-row: perfbench $workload --trace $trace did not report \"correct\": true" >&2
        exit 1
    fi
}

end_to_end=$(jq -c '[.end_to_end[].name]' BENCHMARK.json)
for workload in $(jq -r '.workloads[].name' BENCHMARK.json); do
    perfbench "$workload" 0 5
    perfbench "$workload" 1 1
    jq -n -c --arg w "$workload" --argjson names "$end_to_end" \
        --argjson plain "$(tail -n 1 "$logs/$workload-0.txt")" \
        --argjson traced "$(tail -n 1 "$logs/$workload-1.txt")" \
        '{($w): {
            end_to_end: ([$names[] as $n | {($n): $plain.metrics[$n].value}] | add),
            host_speed: $traced.metrics["bench.host_speed"].value,
            counters: ($traced.metrics
                | with_entries(select(
                    (.key | test("^(ooo|mem|core|checker|faults|store|alloc)\\."))
                    and .value.unit != "ms" and .value.unit != "ns/instr"))
                | map_values(.value))}}' >> "$logs/rows"
done
jq -s -c add "$logs/rows"
