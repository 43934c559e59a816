#!/usr/bin/env sh
# Golden stdout regression runner: executes a command with a neutral
# environment and byte-diffs its stdout against the recorded expectation.
#
#   run_golden.sh <golden-file> <command> [args...]
#
# To refresh an expectation after an intentional output change:
#   <command> [args...] > tests/golden/<golden-file>
set -u

golden="$1"
shift

# Neutralise every knob that could perturb output: disk cache reuse,
# worker-pool stats, fault injection, artifact emission.
unset PP_RUN_CACHE_DIR PP_DRIVER_STATS \
      PP_DRIVER_THREADS PP_FAULT_SEED PP_FAULT_RUN_FAIL_MATCH \
      PP_PROFILE_OUT PP_PROFDB_THREADS \
      PP_OBS PP_OBS_OUT PP_OBS_TRACE 2>/dev/null

tmp="${TMPDIR:-/tmp}/golden.$$"
"$@" > "$tmp"
status=$?
if [ "$status" -ne 0 ]; then
    echo "run_golden.sh: command failed with status $status: $*" >&2
    rm -f "$tmp"
    exit 1
fi

if ! diff -u "$golden" "$tmp"; then
    echo "run_golden.sh: output diverged from $golden" >&2
    rm -f "$tmp"
    exit 1
fi
rm -f "$tmp"
exit 0
