#!/usr/bin/env bash
# Server smoke: build gdrd, boot it on a random port with a data dir, drive
# one full feedback round with curl (create → groups → updates → feedback →
# status → export), check the observability surface (Server-Timing +
# traceparent on responses, the span tree at /debug/traces, JSON log lines
# carrying trace_ids), drive a small gdrload run against the same daemon,
# then restart the daemon mid-run and verify the session survived with a
# byte-identical export, and finally check the SIGTERM drain exits cleanly.
# Needs curl and jq.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

workdir=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building gdrd + gdrload"
go build -o "$workdir/gdrd" ./cmd/gdrd
go build -o "$workdir/gdrload" ./cmd/gdrload
go run ./cmd/gdrgen -dataset 1 -n 300 -seed 5 -dir "$workdir"

# boot_gdrd: start the daemon on a random port with the shared data dir and
# wait for it to report healthy (the boot/port-scrape mechanics live in
# scripts/lib.sh). Extra arguments pass through. Sets $pid and $base.
boot_gdrd() {
  boot_daemon gdrd "$workdir/gdrd.log" "$workdir/gdrd" \
    -addr 127.0.0.1:0 -quiet -data-dir "$workdir/data" "$@"
  pid=$daemon_pid
  base=$daemon_base
  curl -fsS "$base/healthz" | jq -e '.status == "ok"' >/dev/null
}

# stop_gdrd: SIGTERM the daemon and wait for a clean drain.
stop_gdrd() {
  stop_daemon "$pid"
  pid=""
}

echo "== boot gdrd with -data-dir"
boot_gdrd

echo "== create session (multipart upload)"
id=$(curl -fsS -F csv=@"$workdir/dirty.csv" -F rules=@"$workdir/rules.txt" -F seed=5 \
  "$base/v1/sessions" | jq -re '.session.id')
sess="$base/v1/sessions/$id"

echo "== top VOI group"
key=$(curl -fsS "$sess/groups?order=voi&limit=1" | jq -re '.groups[0].key')

echo "== group updates"
updates=$(curl -fsS "$sess/groups/$key/updates")
jq -e '.updates | length > 0' >/dev/null <<<"$updates"

echo "== feedback round (confirm the whole group)"
items=$(jq '[.updates[] | {tid, attr, value, feedback: "confirm"}]' <<<"$updates")
fb=$(curl -fsS -D "$workdir/fb-headers.txt" -X POST -H 'Content-Type: application/json' \
  -d "{\"items\": $items, \"sweep\": true}" "$sess/feedback")
jq -e '.applied_delta >= 1' >/dev/null <<<"$fb"
grep -qi '^server-timing:.*exec;dur=' "$workdir/fb-headers.txt"
grep -qi '^server-timing:.*queue;dur=' "$workdir/fb-headers.txt"
grep -qi '^traceparent: 00-' "$workdir/fb-headers.txt"

echo "== status reflects the round"
curl -fsS "$sess/status" | jq -e '.stats.applied >= 1' >/dev/null

echo "== /debug/traces shows the feedback trace's span tree"
traces=$(curl -fsS "$base/debug/traces")
jq -e '.enabled and .finished_total >= 1' >/dev/null <<<"$traces"
fbtrace=$(jq '[.recent[] | select(.route == "feedback")][0]' <<<"$traces")
jq -e '.trace_id | length == 32' >/dev/null <<<"$fbtrace"
jq -e '[.spans[].stage] | (index("queue") != null) and (index("exec") != null) and (index("persist") != null)' \
  >/dev/null <<<"$fbtrace"
jq -e '[.spans[] | select(.stage == "persist") | .children[].stage] | index("fsync") != null' \
  >/dev/null <<<"$fbtrace"

echo "== export the repaired instance"
curl -fsS "$sess/export" -o "$workdir/repaired.csv"
head -1 "$workdir/repaired.csv" | grep -q ','

echo "== metrics expose the traffic"
curl -fsS "$base/metrics" -o "$workdir/metrics.txt"
grep -q '^gdrd_sessions_live 1' "$workdir/metrics.txt"

echo "== gdrload against the live daemon: every session makes repair progress"
"$workdir/gdrload" -addr "$base" -sessions 4 -users 4 -rounds 4 -n 150 -seed 11 \
  >"$workdir/gdrload.json"
jq -e '.feedback_rounds > 0 and (.sessions | length) == 4 and ([.sessions[].applied] | min) > 0' \
  >/dev/null "$workdir/gdrload.json"

echo "== restart the daemon mid-run; the session must survive"
stop_gdrd
boot_gdrd
sess="$base/v1/sessions/$id"
curl -fsS "$base/metrics" -o "$workdir/metrics.txt"
grep -q '^gdrd_sessions_restored_total 1' "$workdir/metrics.txt"
curl -fsS "$sess/status" | jq -e '.stats.applied >= 1' >/dev/null
curl -fsS "$sess/export" -o "$workdir/repaired-after-restart.csv"
cmp "$workdir/repaired.csv" "$workdir/repaired-after-restart.csv"

echo "== the restored session is live: snapshot export + re-import works"
curl -fsS -X POST "$sess/snapshot" -o "$workdir/session.snap"
[ -s "$workdir/session.snap" ]
imported=$(curl -fsS -F snapshot=@"$workdir/session.snap" -F name=imported \
  "$base/v1/sessions" | jq -re '.session.id')
curl -fsS "$base/v1/sessions/$imported/export" | cmp - "$workdir/repaired.csv"
curl -fsS -X DELETE "$base/v1/sessions/$imported" >/dev/null

echo "== delete session"
curl -fsS -X DELETE "$sess" | jq -e '.status == "deleted"' >/dev/null
if [ -e "$workdir/data/$id.snap" ]; then
  echo "deleted session left its snapshot behind" >&2
  exit 1
fi

echo "== JSON structured logs: request lines parse and carry a trace_id"
stop_gdrd
boot_gdrd -quiet=false -log-format=json
curl -fsS "$base/v1/sessions" >/dev/null
reqline=""
for _ in $(seq 1 50); do
  reqline=$(grep '"trace_id"' "$workdir/gdrd.log" | head -1 || true)
  [ -n "$reqline" ] && break
  sleep 0.1
done
if [ -z "$reqline" ]; then
  echo "no JSON request log line with a trace_id:" >&2
  cat "$workdir/gdrd.log" >&2
  exit 1
fi
jq -e '.msg == "request" and (.trace_id | length == 32) and .route == "list"' >/dev/null <<<"$reqline"

echo "== overload smoke: quota sheds carry Retry-After, healthy tenant unaffected"
stop_gdrd
cat >"$workdir/keys.txt" <<'KEYS'
# smoke tenants: one unlimited, one throttled to 1 req/s
goodkey12345 good
tightkey1234 tight rate=1 burst=1
KEYS
boot_gdrd -keyfile "$workdir/keys.txt"
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/sessions")
if [ "$code" != 401 ]; then
  echo "unauthenticated request got $code, want 401" >&2
  exit 1
fi
saw429=0
for _ in $(seq 1 10); do
  curl -s -D "$workdir/shed-headers.txt" -o /dev/null \
    -H 'Authorization: Bearer tightkey1234' "$base/v1/sessions"
  code=$(awk 'NR==1{print $2}' "$workdir/shed-headers.txt")
  if [ "$code" = 429 ]; then
    saw429=1
    if ! grep -qi '^retry-after:' "$workdir/shed-headers.txt"; then
      echo "429 shed without a Retry-After header" >&2
      exit 1
    fi
  fi
done
if [ "$saw429" != 1 ]; then
  echo "burst past a 1/s quota was never shed" >&2
  exit 1
fi
id2=$(curl -fsS -H 'Authorization: Bearer goodkey12345' \
  -F csv=@"$workdir/dirty.csv" -F rules=@"$workdir/rules.txt" -F seed=5 \
  "$base/v1/sessions" | jq -re '.session.id')
curl -fsS -H 'Authorization: Bearer goodkey12345' \
  "$base/v1/sessions/$id2/groups?order=voi&limit=1" \
  | jq -e '.groups | length >= 1' >/dev/null
curl -fsS "$base/metrics" -o "$workdir/metrics.txt"
grep -q 'gdrd_shed_total{reason="rate",tenant="tight"}' "$workdir/metrics.txt"
grep -q '^gdrd_stage_seconds_count{' "$workdir/metrics.txt"
grep -q '^gdrd_build_info{' "$workdir/metrics.txt"
grep -q '^gdrd_goroutines ' "$workdir/metrics.txt"
curl -fsS -X DELETE -H 'Authorization: Bearer goodkey12345' \
  "$base/v1/sessions/$id2" >/dev/null

echo "== graceful drain on SIGTERM"
stop_gdrd
echo "== smoke OK"
