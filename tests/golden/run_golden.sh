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

# Drop every PP_* variable in the environment (disk cache reuse, worker
# counts, stats, artifact emission, observability, and any knob added
# later), so only the recorded command line decides the output.
for name in $(env | sed -n 's/^\(PP_[A-Za-z0-9_]*\)=.*/\1/p'); do
    unset "$name"
done

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
