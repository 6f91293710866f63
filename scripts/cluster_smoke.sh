#!/usr/bin/env bash
# Cluster smoke: build gdrd + gdrproxy + gdrload, boot a 2-node cluster
# behind the routing gateway, create and drive a session through the proxy,
# then kill -9 whichever node owns it mid-run AND delete its data dir — the
# shared-nothing crash. The proxy must detect the death, promote the
# session from the replica it pushed to the survivor, and keep serving it
# with a byte-identical export — no client-visible data loss. Feedback is
# exactly-once throughout: a POST retried with its request id replays the
# original response bytes, even when the retry lands after the failover on
# a different node. Needs curl and jq.
set -euo pipefail
cd "$(dirname "$0")/.."
. scripts/lib.sh

workdir=$(mktemp -d)
pids=()
cleanup() {
  local p
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building gdrd + gdrproxy + gdrload"
go build -o "$workdir/gdrd" ./cmd/gdrd
go build -o "$workdir/gdrproxy" ./cmd/gdrproxy
go build -o "$workdir/gdrload" ./cmd/gdrload
go run ./cmd/gdrgen -dataset 1 -n 300 -seed 5 -dir "$workdir"

echo "== boot 2 cluster-mode gdrd nodes"
mkdir -p "$workdir/data1" "$workdir/data2"
boot_daemon gdrd "$workdir/node1.log" "$workdir/gdrd" \
  -addr 127.0.0.1:0 -quiet -cluster -data-dir "$workdir/data1"
node1_pid=$daemon_pid node1=$daemon_base
pids+=("$node1_pid")
boot_daemon gdrd "$workdir/node2.log" "$workdir/gdrd" \
  -addr 127.0.0.1:0 -quiet -cluster -data-dir "$workdir/data2"
node2_pid=$daemon_pid node2=$daemon_base
pids+=("$node2_pid")

echo "== boot gdrproxy over both nodes"
boot_daemon gdrproxy "$workdir/proxy.log" "$workdir/gdrproxy" \
  -addr 127.0.0.1:0 \
  -nodes "$node1,$node2" \
  -health-every 100ms -fail-after 2
proxy_pid=$daemon_pid proxy=$daemon_base
pids+=("$proxy_pid")
curl -fsS "$proxy/healthz" | jq -e '.live_nodes == 2' >/dev/null
curl -fsS "$proxy/readyz" | jq -e '.status == "ready"' >/dev/null

echo "== create session through the gateway"
id=$(curl -fsS -F csv=@"$workdir/dirty.csv" -F rules=@"$workdir/rules.txt" -F seed=5 \
  "$proxy/v1/sessions" | jq -re '.session.id')
sess="$proxy/v1/sessions/$id"

echo "== drive one feedback round through the gateway (with a request id)"
req_id="smoke-exactly-once-1"
key=$(curl -fsS "$sess/groups?order=voi&limit=1" | jq -re '.groups[0].key')
updates=$(curl -fsS "$sess/groups/$key/updates")
items=$(jq '[.updates[] | {tid, attr, value, feedback: "confirm"}]' <<<"$updates")
printf '{"items": %s, "sweep": true}' "$items" >"$workdir/feedback.json"
curl -fsS -X POST -H 'Content-Type: application/json' \
  -H "X-Gdr-Request-Id: $req_id" \
  --data-binary @"$workdir/feedback.json" "$sess/feedback" \
  -o "$workdir/feedback-first.json"
jq -e '.applied_delta >= 1' >/dev/null "$workdir/feedback-first.json"
curl -fsS "$sess/status" | jq -e '.stats.applied >= 1' >/dev/null
applied_before=$(curl -fsS "$sess/status" | jq -r '.stats.applied')
curl -fsS "$sess/export" -o "$workdir/before-kill.csv"

echo "== a duplicate of that round replays, it does not re-apply"
curl -fsS -X POST -H 'Content-Type: application/json' \
  -H "X-Gdr-Request-Id: $req_id" \
  --data-binary @"$workdir/feedback.json" "$sess/feedback" \
  -D "$workdir/dup-headers.txt" -o "$workdir/feedback-dup.json"
grep -qi '^x-gdr-duplicate:' "$workdir/dup-headers.txt"
cmp "$workdir/feedback-first.json" "$workdir/feedback-dup.json"
curl -fsS "$sess/status" | jq -e --argjson a "$applied_before" '.stats.applied == $a' >/dev/null

echo "== gdrload through the gateway, forcing duplicates"
"$workdir/gdrload" -addr "$proxy" -sessions 2 -users 2 -rounds 2 -n 120 -seed 7 -dup \
  >"$workdir/gdrload.json"
jq -e '.feedback_rounds > 0 and (.sessions | length) == 2 and .duplicate_replays > 0' \
  >/dev/null "$workdir/gdrload.json"

echo "== wait for the session's replica to land on the other node"
replicated=""
for _ in $(seq 1 100); do
  if curl -fsS "$node1/v1/replicas" "$node2/v1/replicas" | jq -se --arg id "$id" \
    '[.[].replicas[]? | select(.token == $id and .seq >= 1)] | length >= 1' >/dev/null; then
    replicated=yes
    break
  fi
  sleep 0.1
done
[ -n "$replicated" ]

echo "== find the node that owns the session; kill -9 it AND delete its disk"
owner="" owner_pid="" owner_dir="" survivor=""
if curl -fsS "$node1/v1/sessions" | jq -e --arg id "$id" \
  '.sessions[] | select(.id == $id)' >/dev/null; then
  owner=$node1 owner_pid=$node1_pid owner_dir="$workdir/data1" survivor=$node2
else
  curl -fsS "$node2/v1/sessions" | jq -e --arg id "$id" \
    '.sessions[] | select(.id == $id)' >/dev/null
  owner=$node2 owner_pid=$node2_pid owner_dir="$workdir/data2" survivor=$node1
fi
echo "   owner: $owner (survivor: $survivor)"
kill_daemon "$owner_pid"
rm -rf "$owner_dir" # shared-nothing: the dead node's snapshots are gone too

echo "== proxy notices the death and promotes the session from its replica"
for _ in $(seq 1 100); do
  live=$(curl -fsS "$proxy/healthz" | jq -r '.live_nodes')
  [ "$live" = 1 ] && break
  sleep 0.1
done
[ "$live" = 1 ]
retry_curl "$workdir/status-after-kill.json" "$sess/status"
jq -e '.stats.applied >= 1' >/dev/null "$workdir/status-after-kill.json"

echo "== the promoted session serves a byte-identical export"
retry_curl "$workdir/after-kill.csv" "$sess/export"
cmp "$workdir/before-kill.csv" "$workdir/after-kill.csv"
curl -fsS "$survivor/v1/sessions" | jq -e --arg id "$id" \
  '.sessions[] | select(.id == $id)' >/dev/null

echo "== the pre-kill request id still replays on the survivor"
# The dedup window rides the replica snapshot: a retry of the round posted
# before the crash must replay the same bytes from the promoted copy.
retry_curl "$workdir/feedback-postkill.json" "$sess/feedback" \
  -X POST -H 'Content-Type: application/json' \
  -H "X-Gdr-Request-Id: $req_id" --data-binary @"$workdir/feedback.json" \
  -D "$workdir/dup-postkill-headers.txt"
grep -qi '^x-gdr-duplicate:' "$workdir/dup-postkill-headers.txt"
cmp "$workdir/feedback-first.json" "$workdir/feedback-postkill.json"
curl -fsS "$sess/status" | jq -e --argjson a "$applied_before" '.stats.applied == $a' >/dev/null
curl -fsS "$survivor/metrics" -o "$workdir/survivor-metrics.txt"
grep -q '^gdrd_feedback_duplicates_total [1-9]' "$workdir/survivor-metrics.txt"

echo "== the promoted session is still repairable"
retry_curl "$workdir/groups-after-kill.json" "$sess/groups?order=voi&limit=1"
jq -e '.groups | length >= 1' >/dev/null "$workdir/groups-after-kill.json"

echo "== proxy metrics recorded the death, the pushes, and the promotion"
curl -fsS "$proxy/metrics" -o "$workdir/proxy-metrics.txt"
grep -q 'gdrproxy_node_deaths_total' "$workdir/proxy-metrics.txt"
grep -q '^gdrproxy_replica_pushes_total [1-9]' "$workdir/proxy-metrics.txt"
grep -q '^gdrproxy_replica_promotions_total [1-9]' "$workdir/proxy-metrics.txt"
grep -q 'gdrproxy_requests_total' "$workdir/proxy-metrics.txt"

echo "== delete the session through the gateway"
curl -fsS -X DELETE "$sess" | jq -e '.status == "deleted"' >/dev/null

echo "== graceful drain: proxy first, then the surviving node"
stop_daemon "$proxy_pid"
stop_daemon "$(if [ "$survivor" = "$node1" ]; then echo "$node1_pid"; else echo "$node2_pid"; fi)"
pids=()
echo "== cluster smoke OK"
