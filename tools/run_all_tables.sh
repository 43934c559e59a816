#!/bin/sh
# Regenerates the paper's five tables through the shared run cache: every
# unique (workload, mode, machine) run executes at most once across all
# five binaries, on the driver's worker pool, and later tables reuse the
# runs of earlier ones from disk.
#
# Every run also deposits a profile artifact (PP_PROFILE_OUT), and a
# final pp-report pass regenerates Tables 3-5 from the artifact
# repository alone, asserting the stored profiles reproduce the live
# tables byte for byte.
#
# usage: tools/run_all_tables.sh [build-dir] [output-dir]
#
# Environment:
#   PP_RUN_CACHE_DIR   cache directory (default: a fresh temp dir)
#   PP_PROFILE_OUT     artifact repository (default: <output-dir>/artifacts,
#                      or a fresh temp dir)
#   PP_DRIVER_THREADS  worker threads (default: hardware, clamped to 4-16;
#                      0 forces serial in-order execution)
#   PP_DRIVER_STATS=1  per-binary scheduling/cache stats on stderr (set
#                      below unless already set)
#   PP_OBS=0           disable the observability collector entirely
#
# Each table binary also writes a pipeline observability report
# (<output-dir>/<table>.obs.json; see pp-report obs) unless PP_OBS_OUT
# is already set by the caller.

set -e

BUILD_DIR=${1:-build}
OUT_DIR=${2:-}

if [ ! -x "$BUILD_DIR/bench/table1_overhead" ]; then
  echo "run_all_tables.sh: no bench binaries under '$BUILD_DIR'" \
       "(build first: cmake -B build -S . && cmake --build build -j)" >&2
  exit 1
fi

if [ -z "${PP_RUN_CACHE_DIR:-}" ]; then
  PP_RUN_CACHE_DIR=$(mktemp -d "${TMPDIR:-/tmp}/pp-run-cache.XXXXXX")
  export PP_RUN_CACHE_DIR
  echo "run_all_tables.sh: caching runs in $PP_RUN_CACHE_DIR" >&2
fi
if [ -z "${PP_PROFILE_OUT:-}" ]; then
  if [ -n "$OUT_DIR" ]; then
    PP_PROFILE_OUT=$OUT_DIR/artifacts
    mkdir -p "$PP_PROFILE_OUT"
  else
    PP_PROFILE_OUT=$(mktemp -d "${TMPDIR:-/tmp}/pp-artifacts.XXXXXX")
  fi
  export PP_PROFILE_OUT
  echo "run_all_tables.sh: depositing artifacts in $PP_PROFILE_OUT" >&2
fi
PP_DRIVER_STATS=${PP_DRIVER_STATS:-1}
export PP_DRIVER_STATS

# Live table outputs are kept (in OUT_DIR, or a temp dir when printing
# to stdout) so the pp-report replay below can byte-compare against them.
LIVE_DIR=$OUT_DIR
if [ -z "$LIVE_DIR" ]; then
  LIVE_DIR=$(mktemp -d "${TMPDIR:-/tmp}/pp-tables.XXXXXX")
fi
mkdir -p "$LIVE_DIR"

for table in table1_overhead table2_perturbation table3_cct_stats \
             table4_hot_paths table5_hot_procedures; do
  PP_OBS_OUT=${PP_OBS_OUT:-$LIVE_DIR/$table.obs.json} \
    "$BUILD_DIR/bench/$table" > "$LIVE_DIR/$table.txt"
  if [ -n "$OUT_DIR" ]; then
    echo "wrote $OUT_DIR/$table.txt (obs: $table.obs.json)" >&2
  else
    cat "$LIVE_DIR/$table.txt"
    echo
  fi
done

# Replay Tables 3-5 from the artifact repository alone and assert the
# stored profiles reproduce the live output byte for byte.
PPREPORT=$BUILD_DIR/tools/pp-report/pp-report
if [ ! -x "$PPREPORT" ]; then
  echo "run_all_tables.sh: $PPREPORT not built; skipping artifact replay" >&2
  exit 0
fi
echo "run_all_tables.sh: replaying Tables 3-5 from $PP_PROFILE_OUT" >&2
status=0
for pair in "cct-stats table3_cct_stats" "top-paths table4_hot_paths" \
            "top-procs table5_hot_procedures"; do
  cmd=${pair%% *}
  table=${pair#* }
  if ! "$PPREPORT" "$cmd" --repo="$PP_PROFILE_OUT" \
      | cmp -s - "$LIVE_DIR/$table.txt"; then
    echo "run_all_tables.sh: pp-report $cmd --repo diverged from the" \
         "live $table output" >&2
    status=1
  fi
done
if [ "$status" -eq 0 ]; then
  echo "run_all_tables.sh: artifact replay matches live tables" >&2
fi
exit "$status"
