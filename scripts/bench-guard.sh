#!/usr/bin/env bash
# bench-guard.sh — engine-throughput regression guard.
#
# BENCH_engine.json is committed per-merge, so HEAD always records the
# events-per-second the simulator's inner loop achieved on the last
# accepted commit. This script reruns BenchmarkEngineThroughput and
# BenchmarkTenantMux once, compares the fresh figures against the
# committed ones, and fails if any lost more than BENCH_GUARD_THRESHOLD
# percent (default 20) — catching hot-path regressions that slip past
# `afalint -perf`'s static rules (an O(n) scan that grew, an event
# storm) before they land. Guarded figures:
#
#   events_per_sec of the first row (headline-64ssd) — the closed-loop
#   inner loop;
#   ios_per_sec of the headline-64ssd row — simulated I/Os per wall
#   second on the same run. Cutting events per I/O lowers events/sec
#   while making runs faster; this gate sees the work rate, at the same
#   threshold;
#   arrivals_per_sec of each tenant-mux-* row — the open-loop
#   multiplexer's per-arrival path at 10k and 100k tenant populations;
#   mean_lat_ns of each iopath-ull-* row — the low-latency tier's
#   headline figure. Unlike the wall-clock rates these are simulated
#   latencies, machine-independent and deterministic, so the gate is
#   tight (BENCH_GUARD_LAT_THRESHOLD, default 1%) and fails on a RISE:
#   a slower simulated I/O path is a model regression, not noise.
#   Deliberate model changes regenerate the baseline in the same commit.
#
# The committed BENCH_engine.json is restored afterwards: regenerating
# the baseline is a deliberate act (commit the file the benchmark
# writes), not a side effect of running the guard. Absolute numbers are
# machine-dependent; the guard is only meaningful when the baseline was
# recorded on hardware comparable to where it runs (CI baselines come
# from CI merges).
set -euo pipefail
cd "$(dirname "$0")/.."

threshold="${BENCH_GUARD_THRESHOLD:-20}"
lat_threshold="${BENCH_GUARD_LAT_THRESHOLD:-1}"

extract_eps() {
  sed -n 's/.*"events_per_sec": *\([0-9.eE+]*\).*/\1/p' | head -1
}

# extract_row_field <experiment> <field>: the field's value inside the
# row whose "experiment" matches, relying on "experiment" being the
# first key WriteEngineBenchJSON emits per row.
extract_row_field() {
  awk -v name="\"$1\"" -v field="\"$2\"" '
    index($0, "\"experiment\": " name) { hit = 1 }
    hit && index($0, field ":") {
      v = $0
      sub(/.*: */, "", v); sub(/,.*/, "", v)
      print v; exit
    }
    /}/ { hit = 0 }
  '
}

# compare <label> <baseline> <fresh>: fail if fresh dropped more than
# threshold percent below baseline.
compare() {
  awk -v label="$1" -v base="$2" -v fresh="$3" -v thr="${threshold}" 'BEGIN {
    drop = (base - fresh) / base * 100
    printf "bench-guard: %s %.0f -> %.0f (%+.1f%%), threshold -%s%%\n",
           label, base, fresh, -drop, thr
    if (drop > thr) {
      printf "bench-guard: %s regressed more than %s%%\n", label, thr
      exit 1
    }
  }'
}

# compare_rise <label> <baseline> <fresh>: the latency direction — fail
# if fresh rose more than lat_threshold percent above baseline.
compare_rise() {
  awk -v label="$1" -v base="$2" -v fresh="$3" -v thr="${lat_threshold}" 'BEGIN {
    rise = (fresh - base) / base * 100
    printf "bench-guard: %s %.0f -> %.0f (%+.1f%%), threshold +%s%%\n",
           label, base, fresh, rise, thr
    if (rise > thr) {
      printf "bench-guard: %s regressed more than %s%%\n", label, thr
      exit 1
    }
  }'
}

committed="$(git show HEAD:BENCH_engine.json 2>/dev/null || true)"
baseline="$(printf '%s' "${committed}" | extract_eps || true)"
if [ -z "${baseline}" ]; then
  echo "bench-guard: no committed BENCH_engine.json at HEAD; nothing to compare against" >&2
  exit 0
fi

saved="$(mktemp)"
trap 'rm -f "${saved}"' EXIT
had_file=0
if [ -f BENCH_engine.json ]; then
  cp BENCH_engine.json "${saved}"
  had_file=1
fi

go test -run '^$' -bench 'BenchmarkEngineThroughput|BenchmarkTenantMux|BenchmarkIOPathLatency' -benchtime=1x . >/dev/null

fresh_json="$(cat BENCH_engine.json)"
if [ "${had_file}" = 1 ]; then
  cp "${saved}" BENCH_engine.json
else
  rm -f BENCH_engine.json
fi
fresh="$(printf '%s' "${fresh_json}" | extract_eps)"
if [ -z "${fresh}" ]; then
  echo "bench-guard: benchmark produced no events_per_sec" >&2
  exit 1
fi

compare "events/sec" "${baseline}" "${fresh}"

base_ips="$(printf '%s' "${committed}" | extract_row_field headline-64ssd ios_per_sec || true)"
if [ -n "${base_ips}" ]; then
  # Skipped while the committed baseline predates the ios_per_sec field.
  fresh_ips="$(printf '%s' "${fresh_json}" | extract_row_field headline-64ssd ios_per_sec)"
  if [ -z "${fresh_ips}" ]; then
    echo "bench-guard: benchmark produced no ios_per_sec for headline-64ssd" >&2
    exit 1
  fi
  compare "headline-64ssd ios/sec" "${base_ips}" "${fresh_ips}"
fi

for exp in tenant-mux-10k tenant-mux-100k; do
  base_aps="$(printf '%s' "${committed}" | extract_row_field "${exp}" arrivals_per_sec || true)"
  if [ -z "${base_aps}" ]; then
    # The committed baseline predates the tenant-mux rows; skip until a
    # merge commits them.
    continue
  fi
  fresh_aps="$(printf '%s' "${fresh_json}" | extract_row_field "${exp}" arrivals_per_sec)"
  if [ -z "${fresh_aps}" ]; then
    echo "bench-guard: benchmark produced no arrivals_per_sec for ${exp}" >&2
    exit 1
  fi
  compare "${exp} arrivals/sec" "${base_aps}" "${fresh_aps}"
done

for exp in iopath-ull-irq iopath-ull-polling iopath-ull-passthrough; do
  base_lat="$(printf '%s' "${committed}" | extract_row_field "${exp}" mean_lat_ns || true)"
  if [ -z "${base_lat}" ]; then
    # The committed baseline predates the iopath rows; skip until a
    # merge commits them.
    continue
  fi
  fresh_lat="$(printf '%s' "${fresh_json}" | extract_row_field "${exp}" mean_lat_ns)"
  if [ -z "${fresh_lat}" ]; then
    echo "bench-guard: benchmark produced no mean_lat_ns for ${exp}" >&2
    exit 1
  fi
  compare_rise "${exp} mean-lat" "${base_lat}" "${fresh_lat}"
done
