#!/bin/sh
# Fault-injection supervisor for multi-process campaigns: runs the
# 12-block Table-II sweep with N lease-claimed workers while SIGKILL-ing
# a random worker at a fixed cadence, then asserts the merged report
# canonicalizes byte-identically to an unperturbed serial run of the
# same manifest. The coordinator respawns the victims; killed jobs are
# reclaimed through stale leases and resume from the shared checkpoints.
#
# Usage: scripts/chaos_campaign.sh [build-dir] [workers] [kills] [interval-s]
#   workers   worker processes (default 3)
#   kills     total SIGKILLs to inject (default 6; keep below the
#             --max-attempts budget so no job can be poisoned)
#   interval  seconds between kills (default 15)
set -eu

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
WORKERS="${2:-3}"
KILLS="${3:-6}"
INTERVAL="${4:-15}"
DFMRES="$BUILD_DIR/tools/dfmres"
ROOT="$BUILD_DIR/chaos_campaign"

rm -rf "$ROOT"
mkdir -p "$ROOT"
"$DFMRES" campaign --emit-table2 "$ROOT/manifest.json"

echo "chaos_campaign: serial baseline..."
"$DFMRES" campaign --manifest "$ROOT/manifest.json" \
  --campaign-root "$ROOT/serial" --report-out "$ROOT/serial.json"

echo "chaos_campaign: $WORKERS workers, $KILLS random SIGKILLs..."
"$DFMRES" campaign --manifest "$ROOT/manifest.json" \
  --workers "$WORKERS" --campaign-root "$ROOT/root" \
  --max-attempts $((KILLS + WORKERS + 3)) &
COORD=$!

kills_left="$KILLS"
while [ "$kills_left" -gt 0 ] && kill -0 "$COORD" 2>/dev/null; do
  sleep "$INTERVAL"
  # A random live worker of this campaign (never the coordinator).
  VICTIM=$(pgrep -f "work --campaign-root $ROOT/root" | sort -R | head -1)
  if [ -n "${VICTIM:-}" ]; then
    echo "chaos_campaign: SIGKILL worker $VICTIM"
    kill -KILL "$VICTIM" 2>/dev/null || true
    kills_left=$((kills_left - 1))
  fi
done

wait "$COORD"

"$DFMRES" canon "$ROOT/serial.json" > "$ROOT/serial.canon"
"$DFMRES" canon "$ROOT/root/report.json" > "$ROOT/chaos.canon"
cmp "$ROOT/serial.canon" "$ROOT/chaos.canon"
echo "chaos_campaign: merged report canonically identical to serial run."

# The merged trace timeline is the flight recorder for the carnage
# above: when kills actually landed, the lease-protocol rows must show
# at least one takeover (a respawned worker claiming a dead victim's
# stale lease). Merging twice also proves the stitch is deterministic.
"$DFMRES" trace merge --campaign-root "$ROOT/root" --out "$ROOT/trace1.json"
"$DFMRES" trace merge --campaign-root "$ROOT/root" --out "$ROOT/trace2.json"
cmp "$ROOT/trace1.json" "$ROOT/trace2.json"
KILLED=$((KILLS - kills_left))
python3 - "$ROOT/trace1.json" "$KILLED" <<'EOF'
import json, sys
trace = json.load(open(sys.argv[1]))
killed = int(sys.argv[2])
names = [e.get("name") for e in trace["traceEvents"]]
assert "lease.claim" in names, "no lease-protocol rows in the timeline"
if killed > 0:
    assert "lease.takeover" in names, (
        f"{killed} worker(s) were SIGKILLed but the merged timeline"
        " records no lease.takeover"
    )
print(f"chaos_campaign: timeline OK ({names.count('lease.takeover')}"
      f" takeover(s) recorded for {killed} kill(s))")
EOF
