#!/usr/bin/env sh
# Golden-test wrapper for a collector run that persists: runs pp-collectd
# with the given flags and --store=store inside a fresh temp directory, so
# the "persisted ... under store" line it prints does not depend on where
# the test runs.
#
#   ppcollectd_store.sh <pp-collectd> [args...]
set -eu

PPCOLLECTD="$1"
shift

tmp=$(mktemp -d "${TMPDIR:-/tmp}/pp-golden-store.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

cd "$tmp"
"$PPCOLLECTD" "$@" --store=store
