#!/bin/sh
# The repo's sanitizer gate: builds and runs the test suite under the
# address sanitizer (the hardening proof obligation — the fault-injection
# sweep's out-of-bounds claims are only mechanically checked here) and,
# optionally, the thread sanitizer (the parallel driver's race-freedom
# proof). Separate build trees keep the sanitized objects out of the
# normal build.
#
# usage: tools/check.sh [asan|tsan|all]   (default: asan)
#
# The ASan pass runs the full suite; the TSan pass runs the driver,
# fault-injection, profile-repository, observability, optimizer, and
# worker-pool tests, which exercise every concurrent component (the one
# support::WorkerPool and its three users — run scheduler, ingest
# service, parallel artifact merge — plus the run cache, the shared obs
# recorder, and the benches' Build closures optimizing modules on
# worker threads).

set -e

MODE=${1:-asan}
JOBS=$(nproc 2>/dev/null || echo 4)

run_asan() {
  echo "== check.sh: address-sanitizer pass ==" >&2
  cmake -B build-asan -S . -DPP_SANITIZE=address >/dev/null
  cmake --build build-asan -j "$JOBS"
  (cd build-asan && ctest --output-on-failure -j "$JOBS")
}

run_tsan() {
  echo "== check.sh: thread-sanitizer pass ==" >&2
  cmake -B build-tsan -S . -DPP_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS" --target driver_test \
        --target fault_injection_test --target profdb_test \
        --target obs_test --target collectd_test --target wire_test \
        --target server_test --target opt_test \
        --target pgo_differential_test --target kpath_numbering_test \
        --target worker_pool_test
  (cd build-tsan && ctest --output-on-failure -j "$JOBS" \
        -R 'DriverTest|RunKeyTest|RunEntryTest|SchedulerTest|Fault|ProfDb|Obs|Collectd|Wire|Server|Opt|Pgo|KPath|NumberingQueries|WorkerPool')
}

case "$MODE" in
  asan) run_asan ;;
  tsan) run_tsan ;;
  all)  run_asan; run_tsan ;;
  *)
    echo "usage: tools/check.sh [asan|tsan|all]" >&2
    exit 2
    ;;
esac

echo "check.sh: $MODE pass clean" >&2
