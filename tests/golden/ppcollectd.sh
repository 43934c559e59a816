#!/usr/bin/env sh
# Golden-test wrapper for the fleet collector's batch ingest: runs pp with
# --profile-out into a fresh temp repository, adds two entries named
# *.ppa that are not artifacts (a directory and a dangling link), and
# prints pp-collectd --ingest's stdout for the repository — the bytes the
# golden locks in. Anything on stderr fails the test: the listing must
# skip non-artifacts silently, not warn about them as unreadable.
#
#   ppcollectd.sh <pp> <pp-collectd> <mode> <workload> [query args...]
set -eu

PP="$1"
PPCOLLECTD="$2"
MODE="$3"
WORKLOAD="$4"
shift 4

tmp=$(mktemp -d "${TMPDIR:-/tmp}/pp-golden-collectd.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

repo="$tmp/repo"
mkdir "$repo"
"$PP" --mode="$MODE" "$WORKLOAD" --profile-out="$repo" >/dev/null
mkdir "$repo/dir.ppa"
ln -s "$repo/absent" "$repo/dangling.ppa"

"$PPCOLLECTD" --ingest="$repo" "$@" 2>"$tmp/stderr"
if [ -s "$tmp/stderr" ]; then
    echo "ppcollectd.sh: pp-collectd wrote to stderr:" >&2
    cat "$tmp/stderr" >&2
    exit 1
fi
