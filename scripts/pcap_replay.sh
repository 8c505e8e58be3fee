#!/usr/bin/env bash
# Export-replay round trip for the wire capture subsystem: run a campaign
# with the packet tap installed, write the traffic to a standard pcap, then
# feed that file back through the bounds-checked reader into the passive
# analysis (§5.2.2) — proving the on-disk artifact carries everything the
# analysis needs, with no simulator state on the side.
#
# Usage: scripts/pcap_replay.sh [--scale=X] [--seed=N] [build-dir]
#   --scale / --seed are forwarded to both benches (defaults 0.05 / 42);
#   build-dir defaults to build-replay.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="--scale=0.05"
SEED="--seed=42"
BUILD="build-replay"
for arg in "$@"; do
  case "$arg" in
    --scale=*) SCALE="$arg" ;;
    --seed=*) SEED="$arg" ;;
    *) BUILD="$arg" ;;
  esac
done

OUT="${BUILD}/replay.pcap"

echo "=== build ==="
cmake -B "${BUILD}" -S . >/dev/null
cmake --build "${BUILD}" -j --target pcap_export reproduce

echo "=== export: campaign -> ${OUT} (+.idx) ==="
# Delivered packets only: a passive tap never sees traffic the borders
# dropped, so the replay semantics match a real root-server capture.
"${BUILD}/bench/pcap_export" "${SCALE}" "${SEED}" --no-drops --out="${OUT}"

if command -v tcpdump >/dev/null 2>&1; then
  echo "=== independent reader: tcpdump -r ==="
  tcpdump -r "${OUT}" -c 5
else
  echo "=== tcpdump not installed; skipping independent read-back ==="
fi

echo "=== replay: ${OUT} -> reproduce (§5.2.2 passive comparison) ==="
"${BUILD}/bench/reproduce" "${SCALE}" "${SEED}" --pcap="${OUT}"

echo "=== pcap_replay.sh: round trip complete ==="
