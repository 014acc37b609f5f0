#!/usr/bin/env bash
# Holds a row measured by scripts/bench-row.sh to the last row of the
# history:
#
#   scripts/bench-gate.sh row.json [BENCH_history.jsonl]
#
# Fails when, on any workload:
#   - an exact counter differs from the committed one, compared as parsed
#     numbers rather than text;
#   - minstr_per_s or trials_per_s is below half the committed value;
#   - a workload, counter or rate is on one side only.
# Each failure names the workload, the metric, and the committed and
# measured values. Needs jq.
set -euo pipefail

row=$1
history=${2:-"$(dirname "$0")/../BENCH_history.jsonl"}

report=$(jq -n -r --argjson base "$(tail -n 1 "$history")" --argjson row "$(cat "$row")" '
    def show: if . == null then "absent" else tostring end;
    ($base + $row | keys_unsorted[]) as $w
    | if $base[$w] == null or $row[$w] == null then
        "FAIL \($w): workload committed \($base[$w] != null), measured \($row[$w] != null)"
      else
        (($base[$w].counters + $row[$w].counters | keys_unsorted[]) as $m
         | $base[$w].counters[$m] as $c | $row[$w].counters[$m] as $v
         | select($c != $v)
         | "FAIL \($w): \($m) committed \($c | show), measured \($v | show)"),
        (("minstr_per_s", "trials_per_s") as $m
         | $base[$w].end_to_end[$m] as $c | $row[$w].end_to_end[$m] as $v
         | if $c == null or $v == null or $v < 0.5 * $c then
             "FAIL \($w): \($m) committed \($c | show), measured \($v | show), below 0.5x"
           else
             "ok   \($w): \($m) committed \($c), measured \($v) (\($v / $c * 100 | round)%)"
           end),
        "ok   \($w): \($base[$w].counters | length) counters compared"
      end')
echo "$report"
if failures=$(grep -c '^FAIL' <<< "$report"); then
    echo "bench-gate: $failures failure(s) against the last row of $history" >&2
    exit 1
fi
echo "bench-gate: every counter equal, every rate at least 0.5x the last row of $history"
