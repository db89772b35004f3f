#!/usr/bin/env bash
# Byte-identical differential gate for the 22 table/figure bench texts.
#
# Runs every table/figure bench from BUILD_DIR (default: build) with its
# golden arguments and diffs stdout against bench/goldens/<name>.txt.
# Any drift fails the gate; a refactor that is supposed to be behavior-
# preserving must leave all 22 texts untouched. Benches whose numbers
# legitimately change (a bugfix altering modeled behavior) must regenerate
# their goldens in the same commit:
#
#   tools/check_bench_goldens.sh --update   # rewrite goldens from HEAD
#
# TRACE_FORMAT=text|binary appends --trace-format to every bench, which
# round-trips each prepared workload trace through an on-disk file in that
# format before use. The goldens are shared across modes: running the gate
# with TRACE_FORMAT=binary proves the binary format is a lossless mirror
# of the text format all the way through the simulator (CI does both).
#
# Wall-clock cost is not gated here: perfbench/ measures it (perfbench/
# smoke.py checks that it runs).
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${BUILD_DIR:-$repo/build}"
goldens="$repo/bench/goldens"
update=0
[[ "${1:-}" == "--update" ]] && update=1

format_args=()
if [[ -n "${TRACE_FORMAT:-}" ]]; then
  case "$TRACE_FORMAT" in
    text|binary) format_args=(--trace-format "$TRACE_FORMAT") ;;
    *)
      echo "check_bench_goldens: bad TRACE_FORMAT '$TRACE_FORMAT'" >&2
      exit 2
      ;;
  esac
fi

# bench binary -> golden stem + extra args. table5_4 contributes two
# texts: the default table and the --sweep variant.
runs=(
  "clark_linearization|clark_linearization|"
  "fig3_1_primitive_frequencies|fig3_1_primitive_frequencies|"
  "fig3_4_6_list_sets|fig3_4_6_list_sets|"
  "fig3_7_lru_stack|fig3_7_lru_stack|"
  "fig3_8_13_sensitivity|fig3_8_13_sensitivity|"
  "fig4_10_13_timing|fig4_10_13_timing|"
  "fig5_1_2_lpt_size|fig5_1_2_lpt_size|"
  "fig5_3_compression_policy|fig5_3_compression_policy|"
  "fig5_5_line_size|fig5_5_line_size|"
  "gc_comparison|gc_comparison|"
  "heap_backend_comparison|heap_backend_comparison|"
  "m3l_truncated_counts|m3l_truncated_counts|"
  "multilisp_weights|multilisp_weights|"
  "table3_1_np|table3_1_np|"
  "table3_2_chaining|table3_2_chaining|"
  "table5_1_trace_content|table5_1_trace_content|"
  "table5_2_3_lpt_activity|table5_2_3_lpt_activity|"
  "table5_4_lpt_vs_cache|table5_4_lpt_vs_cache|"
  "table5_4_lpt_vs_cache|table5_4_lpt_vs_cache.sweep|--sweep"
  "table5_5_param_sensitivity|table5_5_param_sensitivity|"
  "traversal_hit_rate|traversal_hit_rate|"
  "workload_scale|workload_scale|--quick"
)

fail=0
for spec in "${runs[@]}"; do
  IFS='|' read -r bin stem args <<<"$spec"
  exe="$build/bench/$bin"
  if [[ ! -x "$exe" ]]; then
    echo "MISSING BINARY: $exe" >&2
    fail=1
    continue
  fi
  # A bench that exits nonzero must fail the gate with its own message,
  # not silently contribute empty output (or abort the loop via set -e).
  status=0
  out="$("$exe" $args ${format_args[@]+"${format_args[@]}"})" || status=$?
  if [[ "$status" != 0 ]]; then
    echo "BENCH FAILED: $bin $args (exit $status)" >&2
    fail=1
    continue
  fi
  golden="$goldens/$stem.txt"
  if [[ "$update" == 1 ]]; then
    printf '%s\n' "$out" >"$golden"
    echo "updated $stem"
    continue
  fi
  # A missing golden is a broken gate, not a diff: name it loudly so a
  # renamed bench or a forgotten `git add` can't pass as "no drift".
  if [[ ! -f "$golden" ]]; then
    echo "MISSING GOLDEN: $golden (run with --update and commit it)" >&2
    fail=1
    continue
  fi
  if ! diff -u "$golden" <(printf '%s\n' "$out") >/tmp/golden_diff.$$ 2>&1; then
    echo "GOLDEN DRIFT: $stem" >&2
    cat /tmp/golden_diff.$$ >&2
    fail=1
  else
    echo "ok $stem"
  fi
  rm -f /tmp/golden_diff.$$
done

if [[ "$fail" != 0 ]]; then
  echo "bench golden gate FAILED" >&2
  exit 1
fi
mode="${TRACE_FORMAT:-direct}"
echo "bench golden gate passed: ${#runs[@]} texts byte-identical ($mode traces)"
