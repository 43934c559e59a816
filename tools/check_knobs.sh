#!/bin/sh
# The environment-knob inventory gate: every PP_* variable that code
# under src/, tools/ or bench/ reads (as a quoted string literal) must
# have a row in DESIGN.md's "Environment knobs" table, and every row
# there must name a variable that something still reads. A knob added
# without documentation, or a row left behind by a retired knob, fails.
#
# usage: tools/check_knobs.sh   (run from the source root; ctest does)

set -e

read_knobs() {
  grep -rhoE '"PP_[A-Z0-9_]+"' src tools bench | tr -d '"' | sort -u
}

# First-column names of the table under the "Environment knobs" heading,
# up to the next heading.
documented_knobs() {
  awk '/^#+ .*Environment knobs/ { in_table = 1; next }
       in_table && /^#/ { exit }
       in_table && /^\| `PP_/ { print }' DESIGN.md |
    sed -E 's/^\| `(PP_[A-Z0-9_]+)`.*/\1/' | sort -u
}

TMP=$(mktemp -d "${TMPDIR:-/tmp}/pp-knobs.XXXXXX")
trap 'rm -rf "$TMP"' EXIT
read_knobs >"$TMP/read"
documented_knobs >"$TMP/documented"

if [ ! -s "$TMP/documented" ]; then
  echo "check_knobs.sh: no Environment knobs table in DESIGN.md" >&2
  exit 1
fi

STATUS=0
UNDOCUMENTED=$(comm -23 "$TMP/read" "$TMP/documented")
STALE=$(comm -13 "$TMP/read" "$TMP/documented")
if [ -n "$UNDOCUMENTED" ]; then
  echo "check_knobs.sh: read but not in DESIGN.md's knob table:" >&2
  echo "$UNDOCUMENTED" | sed 's/^/  /' >&2
  STATUS=1
fi
if [ -n "$STALE" ]; then
  echo "check_knobs.sh: in DESIGN.md's knob table but read nowhere:" >&2
  echo "$STALE" | sed 's/^/  /' >&2
  STATUS=1
fi
[ "$STATUS" -eq 0 ] &&
  echo "check_knobs.sh: $(wc -l <"$TMP/read" | tr -d ' ') knobs, all documented"
exit "$STATUS"
