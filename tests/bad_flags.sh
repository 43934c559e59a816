#!/usr/bin/env sh
# Bad command lines fail by name: every malformed or out-of-range numeric
# flag of pp, pp-report, pp-opt and pp-collectd, every retired flag, and
# every flag given without the one it needs must exit nonzero and name the
# flag on stderr, instead of reading as 0 (or as its numeric prefix) and
# running on with a value nobody asked for. An output file pp cannot write
# likewise fails and names the file, instead of reporting it written.
#
#   bad_flags.sh <pp> <pp-report> <pp-opt> <pp-collectd>
set -u

PP="$1"
PPREPORT="$2"
PPOPT="$3"
PPCOLLECTD="$4"

tmp=$(mktemp -d "${TMPDIR:-/tmp}/pp-bad-flags.XXXXXX")
trap 'rm -rf "$tmp"' EXIT

# One real artifact, so each pp-report, pp-opt and pp-collectd --ingest
# command line is valid apart from the flag under test.
if ! "$PP" --mode=flowhw 130.li --profile-out="$tmp/repo" >/dev/null; then
    echo "bad_flags.sh: pp could not produce an artifact" >&2
    exit 1
fi
set -- "$tmp"/repo/*.ppa
art="$1"

failures=0

# expect_bad <flag> <command...>: the command must fail and say <flag>.
expect_bad() {
    flag="$1"
    shift
    if "$@" >/dev/null 2>"$tmp/err"; then
        echo "FAIL (exit 0): $*" >&2
        failures=$((failures + 1))
    elif ! grep -q -e "$flag" "$tmp/err"; then
        echo "FAIL (stderr does not name $flag): $*" >&2
        cat "$tmp/err" >&2
        failures=$((failures + 1))
    fi
}

expect_bad --paths "$PP" --paths=ten 130.li
expect_bad --paths "$PP" --paths=-1 130.li
expect_bad --hot "$PP" --hot=abc 130.li
expect_bad --hot "$PP" --hot=0 130.li
expect_bad --hot "$PP" --hot=1.5 130.li
expect_bad --hot "$PP" --hot=0.5x 130.li
expect_bad --sample-pic "$PP" --sample-pic=banana 130.li
expect_bad --sample-pic "$PP" --sample-pic=2 130.li
expect_bad --sample-seed "$PP" --sample-seed=12x 130.li
expect_bad --scale "$PP" --scale=2x 130.li
expect_bad --k "$PP" --k=1x 130.li
expect_bad --period "$PP" --period=abc 130.li

# Output files under a directory that does not exist.
absent="$tmp/absent"
expect_bad "$absent/x.cct" "$PP" --mode=contextflowhw \
    --cct-out="$absent/x.cct" examples/recurse.ppir
expect_bad "$absent/x.dot" "$PP" --mode=contextflowhw \
    --dot="$absent/x.dot" examples/recurse.ppir

expect_bad --paths "$PPREPORT" top-paths --paths=ten "$art"
expect_bad --procs "$PPREPORT" top-procs --procs=5x "$art"
expect_bad --limit "$PPREPORT" diff --limit=ten "$art" "$art"
expect_bad --k "$PPREPORT" top-paths --k=1x "$art"

expect_bad --scale "$PPOPT" --in 130.li --profile "$art" --scale=2x

# A valid pp-collectd command line apart from the flag: a one-upload
# simulation, so a bound that is not enforced shows as a quick exit 0.
# --threads and --queue are retired (ingest runs on the caller), so even
# the values they used to accept are refused.
sim="--clients=1 --uploads=1 --workloads=130.li"
expect_bad --threads "$PPCOLLECTD" --threads=4 $sim
expect_bad --clients "$PPCOLLECTD" --clients=0
expect_bad --queue "$PPCOLLECTD" --queue=256 $sim
expect_bad --retain "$PPCOLLECTD" --retain=1 $sim
expect_bad --serve "$PPCOLLECTD" --serve=70000
expect_bad --window "$PPCOLLECTD" --ingest="$tmp/repo" --window=1x

if [ "$failures" -ne 0 ]; then
    echo "bad_flags.sh: $failures bad spelling(s) accepted" >&2
    exit 1
fi
echo "bad_flags.sh: every bad spelling rejected"
