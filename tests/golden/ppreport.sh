#!/usr/bin/env sh
# Golden-test wrapper for the profile repository: runs pp with
# --profile-out into a fresh temp repository, picks the artifact of the
# profiled (non-Base) run, and prints pp-report's stdout for it — the
# bytes the golden locks in.
#
#   ppreport.sh <pp> <pp-report> <mode> <workload> <report-cmd> [args...]
set -eu

PP="$1"
PPREPORT="$2"
MODE="$3"
WORKLOAD="$4"
shift 4

tmp=$(mktemp -d "${TMPDIR:-/tmp}/pp-golden-ppa.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

"$PP" --mode="$MODE" "$WORKLOAD" --profile-out="$tmp" >/dev/null

# pp deposits two artifacts: the Base (uninstrumented) reference run and
# the profiled run. The report header names the schema; skip Base.
art=
for f in "$tmp"/*.ppa; do
    if "$PPREPORT" cct-stats "$f" 2>/dev/null | head -n 1 | grep -q ", Base,"; then
        continue
    fi
    art=$f
done
if [ -z "$art" ]; then
    echo "ppreport.sh: no profiled artifact produced" >&2
    exit 1
fi

"$PPREPORT" "$@" "$art"
