#!/usr/bin/env sh
# Golden-test wrapper for the observability report: runs pp with
# --obs-out into a temp file and prints pp-report obs's rendering of it —
# the bytes the golden locks in. Works because obs reports are
# byte-stable for a fixed RunPlan (virtual timestamps, fixed field
# order), whatever the worker-pool size.
#
#   ppobs.sh <pp> <pp-report> <mode> <workload>
set -eu

PP="$1"
PPREPORT="$2"
MODE="$3"
WORKLOAD="$4"

tmp=$(mktemp "${TMPDIR:-/tmp}/pp-golden-obs.XXXXXX")
trap 'rm -f "$tmp"' EXIT

"$PP" --mode="$MODE" "$WORKLOAD" --obs-out="$tmp" >/dev/null

"$PPREPORT" obs "$tmp"
