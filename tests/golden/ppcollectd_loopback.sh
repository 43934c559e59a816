#!/usr/bin/env sh
# Golden-test wrapper for the collector over loopback TCP: starts
# pp-collectd --serve on an ephemeral port, uploads a simulated fleet to
# it with --connect, and prints the client's stdout, then the server's
# without its port line. The server exits once it has served <uploads>
# uploads and the client has hung up; the trap kills it on any other
# exit, and `timeout` bounds it even if this script is killed outright.
#
#   ppcollectd_loopback.sh <pp-collectd> <uploads> [fleet args...]
set -eu

PPCOLLECTD="$1"
UPLOADS="$2"
shift 2

tmp=$(mktemp -d "${TMPDIR:-/tmp}/pp-golden-loopback.XXXXXX")
srv=
trap '[ -z "$srv" ] || kill "$srv" 2>/dev/null; rm -rf "$tmp"' EXIT
trap 'exit 1' HUP INT TERM

timeout 120 "$PPCOLLECTD" --serve=0 --expect-uploads="$UPLOADS" \
    >"$tmp/server" &
srv=$!

port=
while [ -z "$port" ]; do
    kill -0 "$srv" 2>/dev/null || { echo "server exited" >&2; exit 1; }
    sleep 0.1
    port=$(sed -n 's/^pp-collectd: listening on .*:\([0-9]*\)$/\1/p' \
        "$tmp/server")
done

"$PPCOLLECTD" --connect="127.0.0.1:$port" "$@"
wait "$srv"
srv=
echo "-- server --"
grep -v '^pp-collectd: listening on ' "$tmp/server"
