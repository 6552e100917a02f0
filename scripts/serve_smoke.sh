#!/bin/sh
# Scenario service smoke: build northstar, start the serve daemon,
# replay the whole served inventory (as GET /v1/scenarios lists it)
# twice, and hold the service to its
# two core claims on a real socket: served tables are byte-identical to
# the committed golden corpus, and the second pass is answered from the
# content-addressed cache (observed via /varz counters, not inference).
# Run from the repo root; SERVE_SMOKE_ADDR overrides the listen address.
set -e
cd "$(dirname "$0")/.."

ADDR="${SERVE_SMOKE_ADDR:-127.0.0.1:8437}"
BASE="http://$ADDR"
TMP="$(mktemp -d)"
SRV_PID=""
trap '[ -n "$SRV_PID" ] && kill "$SRV_PID" 2>/dev/null; rm -rf "$TMP"' EXIT

go build -o "$TMP/northstar" ./cmd/northstar
"$TMP/northstar" serve -addr "$ADDR" 2> "$TMP/serve.log" &
SRV_PID=$!

# Wait for the daemon to accept requests (5s ceiling).
ok=""
for i in $(seq 1 50); do
  if curl -sf "$BASE/healthz" > /dev/null 2>&1; then ok=1; break; fi
  sleep 0.1
done
if [ -z "$ok" ]; then
  echo "serve smoke: daemon never became healthy" >&2
  cat "$TMP/serve.log" >&2
  exit 1
fi

# The inventory comes from the service itself, so the smoke follows the
# registry instead of a hard-coded ID list.
IDS=$(curl -sf "$BASE/v1/scenarios" \
  | python3 -c 'import json,sys; print(" ".join(s["id"] for s in json.load(sys.stdin)))')
COUNT=$(echo $IDS | wc -w)
if [ "$COUNT" -eq 0 ]; then
  echo "serve smoke: GET /v1/scenarios listed no scenarios" >&2
  exit 1
fi

# Two passes over every served scenario: pass 1 computes, pass 2 must
# be served from cache — and both must match the golden corpus exactly.
for pass in 1 2; do
  for id in $IDS; do
    curl -sf -X POST "$BASE/v1/scenario" -d "{\"id\":\"$id\",\"quick\":true}" \
      | python3 -c 'import json,sys; sys.stdout.write(json.load(sys.stdin)["table"])' \
      > "$TMP/$id.table"
    cmp "$TMP/$id.table" "internal/experiments/testdata/golden/$id.table"
  done
done

curl -sf "$BASE/varz" > "$TMP/varz.json"
COUNT="$COUNT" VARZ="$TMP/varz.json" python3 - <<'EOF'
import json, os
snap = json.load(open(os.environ["VARZ"]))
assert snap["schema"] == "northstar-metrics/v2", snap["schema"]
serve = next(s for s in snap["scopes"] if s["name"] == "serve")
count = int(os.environ["COUNT"])
hits, misses = serve["counters"]["hits"], serve["counters"]["misses"]
assert misses == count, f"expected {count} cold computations, saw misses={misses}"
assert hits >= count, f"second pass not served from cache: hits={hits}"
lat = serve["histograms"]["request_seconds"]
assert lat["count"] == hits + misses, (lat["count"], hits, misses)
print(f"serve smoke: ok ({count} scenarios x 2 passes, hits={hits}, misses={misses})")
EOF

kill "$SRV_PID"
wait "$SRV_PID" 2>/dev/null || true
SRV_PID=""
