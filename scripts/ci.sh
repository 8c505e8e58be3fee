#!/usr/bin/env bash
# CI entry point: plain build + full test suite, a compile of the
# perfbench campaign driver, then three sanitizer builds —
# ThreadSanitizer over the sharded-runner tests (label "parallel") plus
# the streaming-TCP suite (label "tcp", whose golden campaign pins run
# through the sharded runner), the persistent-transport
# suite (label "transport", whose campaign differential does the same with
# pipelined sessions), the event-core suite (label "eventcore") and the
# cross-check and poisoning suites (labels "crosscheck" and "poison", whose
# sharded campaigns run on worker threads that read one shared campaign
# plan), AddressSanitizer over the fuzz + pcap + batched-delivery + tcp +
# transport + campaign + crosscheck + poison + eventcore + resolver labels
# (bit-flip/truncation fuzzing only proves "throws, never over-reads" when
# the reads are instrumented, the TCP reassembly/segment/session paths
# exercise the pooled-buffer recycling hardest, the event loop's
# intrusive node pool and heap entries are raw pointers, and the resolver
# destroys a UDP handler from inside that handler's own call), and
# UndefinedBehaviorSanitizer over the same labels plus the full unit suite
# (shift/overflow/alignment UB in the byte codecs), the golden-table pins
# (label "golden"), the allocation regression (label "alloc": UBSan does
# not replace operator new, so its counters hold), the bench
# flag-rejection tests (label "cli"), the five examples run end to end
# (label "example") and a short run of the one-shot TCP exchange
# microbench (label "micro"). A final label audit fails the run if a
# tests/test_*.cpp is unregistered, a registered test carries no label,
# or a label runs in no sanitizer lane without a written exclusion, and a
# source audit fails it if src/ spells a second callable type.
#
# Usage: scripts/ci.sh [build-dir-prefix]   (default: build-ci)
# Env:   CD_COVERAGE=1 adds a gcov-instrumented run reporting
#        per-directory line coverage for src/ (skipped unless gcovr is
#        installed).
set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build-ci}"

# The label regex each sanitizer lane runs; the audit below checks that
# every ctest label appears in one of them or in UNSANITIZED_LABELS.
TSAN_LABELS="parallel|tcp|transport|eventcore|crosscheck|poison"
ASAN_LABELS="fuzz|pcap|batched|tcp|transport|campaign|crosscheck|poison|eventcore|resolver"
UBSAN_LABELS="unit|pcap|batched|fuzz|tcp|transport|campaign|crosscheck|poison|cli|golden|alloc|example|micro"
# Labels deliberately run only in the plain build, as "label: reason" lines.
UNSANITIZED_LABELS=""

echo "=== plain build + ctest ==="
cmake -B "${PREFIX}" -S . >/dev/null
cmake --build "${PREFIX}" -j
ctest --test-dir "${PREFIX}" --output-on-failure -j

echo "=== perfbench driver compiles against src/ ==="
# The benchmark builds perfbench/campaign.cpp on its own against the
# library sources; compiling it here makes a src/ API change that breaks
# the driver fail CI rather than the benchmark run. Compile only.
cmake -B "${PREFIX}-perfbench" -S perfbench >/dev/null
cmake --build "${PREFIX}-perfbench" -j

echo "=== TSan build + parallel/tcp/transport/eventcore/crosscheck/poison-label ctest ==="
# The eventcore label covers the sharded golden-digest campaigns: each
# worker thread drives its own event loop, so the node pools and heaps
# must be provably unshared under TSan. The transport label runs
# its persistent-session campaigns through the same threaded runner, and
# the crosscheck and poison labels run theirs on 2 threads: every shard
# world reads the run's one campaign plan, which must stay read-only.
cmake -B "${PREFIX}-tsan" -S . -DCD_SANITIZE=thread >/dev/null
cmake --build "${PREFIX}-tsan" -j --target test_core_parallel test_sim_tcp \
  test_sim_event_core test_transport test_crosscheck test_attack_poisoning
ctest --test-dir "${PREFIX}-tsan" -L "${TSAN_LABELS}" \
  --output-on-failure

echo "=== ASan build + fuzz/pcap/batched/tcp/transport/campaign/crosscheck/poison/eventcore/resolver ctest ==="
# The campaign label covers the streamed-world + disk-spill battery: the
# spill truncation/bit-flip fuzz only proves "throws, never over-reads" when
# the reads are instrumented, and its RSS-budget test asserts the
# bounded-memory claim under a sanitizer-scaled budget that stays fixed as
# targets grow. The crosscheck label runs the Closed Resolver differential
# battery (second scanner plane) under the same instrumentation, and the
# poison label the off-path attack plane (forged packets are exactly the
# adversarial inputs the decoder paths must over-read-proof). The eventcore
# label runs the event loop's reference-model property tests, whose
# randomized schedule/cancel programs recycle pooled nodes and sift the
# heap under instrumentation. The
# name, cache and qname suites carry the fuzz label too: DnsName reads its
# inline buffer a word at a time, and the name property programs drive
# heap-spilled names, suffix probes and compression pointers through it. So
# does the source-selection suite, whose property program drives the
# selector's per-AS /24 tables over random topologies, and so do the
# topology and zone suites, whose property programs drive the flattened
# route ranges, Network::send's border checks and the zone's in-place
# suffix probes against their reference implementations. The resolver label
# covers RecursiveResolver, which unbinds an upstream query's UDP port from
# inside that port's own handler on every answer: the handler's SmallFn is
# destroyed while it runs, and ASan proves nothing touches it afterwards.
cmake -B "${PREFIX}-asan" -S . -DCD_SANITIZE=address >/dev/null
cmake --build "${PREFIX}-asan" -j --target \
  test_util_bytes test_dns_message test_util_pcap test_golden_pcap \
  test_sim_batched test_sim_tcp test_net_checksum test_campaign_stream \
  test_crosscheck test_attack_poisoning test_transport test_sim_event_core \
  test_dns_name test_dns_cache test_scanner_qname test_scanner_sources \
  test_resolver_recursive test_resolver_auth test_sim_topology test_dns_zone
ASAN_OPTIONS=detect_leaks=1 \
  ctest --test-dir "${PREFIX}-asan" \
  -L "${ASAN_LABELS}" \
  --output-on-failure

echo "=== UBSan build + ${UBSAN_LABELS//|//} ctest ==="
# The cli label runs bench binaries with malformed flag values or unknown
# flags: the strict parsers must reject them before any campaign starts.
# It also runs reproduce on a small world through every section it prints.
# The example label runs each examples/ program to completion, and the
# micro label the BM_TcpResponse/512 microbench, failing on its error line.
cmake -B "${PREFIX}-ubsan" -S . -DCD_SANITIZE=undefined >/dev/null
cmake --build "${PREFIX}-ubsan" -j
ctest --test-dir "${PREFIX}-ubsan" -L "${UBSAN_LABELS}" --output-on-failure -j

echo "=== ctest label audit ==="
# Three invariants keep the sanitizer lanes honest as tests are added:
# every tests/test_*.cpp must be registered with cd_test (an unregistered
# file silently never runs), every registered test must carry at least
# one label (ctest -L unions select everything, so a test added with a
# novel unlisted label still runs in the plain suite and shows up here),
# and every label must run in some sanitizer lane or carry a written
# exclusion in UNSANITIZED_LABELS.
for f in tests/test_*.cpp; do
  name="$(basename "${f}" .cpp)"
  if ! grep -Eq "cd_test\(${name}( |\))" tests/CMakeLists.txt; then
    echo "label audit: ${f} is not registered in tests/CMakeLists.txt" >&2
    exit 1
  fi
done
labels="$(ctest --test-dir "${PREFIX}" --print-labels \
  | sed -n 's/^  *//p' | grep -v 'Labels' | paste -sd'|' -)"
total="$(ctest --test-dir "${PREFIX}" -N | sed -n 's/^Total Tests: //p')"
labeled="$(ctest --test-dir "${PREFIX}" -N -L "${labels}" \
  | sed -n 's/^Total Tests: //p')"
if [[ -z "${total}" || "${total}" != "${labeled}" ]]; then
  echo "label audit: ${labeled:-0}/${total:-?} tests carry a label" >&2
  echo "             (union tried: ${labels})" >&2
  exit 1
fi
lanes="|${TSAN_LABELS}|${ASAN_LABELS}|${UBSAN_LABELS}|"
excluded="|$(sed -n 's/:.*//p' <<<"${UNSANITIZED_LABELS}" | paste -sd'|' -)|"
for label in ${labels//|/ }; do
  if [[ "${lanes}${excluded}" != *"|${label}|"* ]]; then
    echo "label audit: label '${label}' runs in no sanitizer lane" >&2
    echo "             (add it to a lane or to UNSANITIZED_LABELS)" >&2
    exit 1
  fi
done
echo "label audit: all ${total} tests registered and labeled;" \
  "every label runs in a sanitizer lane"

echo "=== callable audit ==="
# Every type-erased callback in src/ is a move-only sim::SmallFn
# (sim/callback.h): one mechanism, no per-call allocation for the hot
# closures, single ownership of deferred replies. A std::function in src/
# brings back the second type.
if grep -rn "std::function" src/; then
  echo "callable audit: src/ uses std::function; use sim::SmallFn" >&2
  exit 1
fi
echo "callable audit: src/ has one callable type"

if [[ "${CD_COVERAGE:-0}" == "1" ]]; then
  if command -v gcovr >/dev/null 2>&1; then
    echo "=== coverage build + per-directory report for src/ ==="
    cmake -B "${PREFIX}-cov" -S . -DCD_COVERAGE=ON >/dev/null
    cmake --build "${PREFIX}-cov" -j
    ctest --test-dir "${PREFIX}-cov" --output-on-failure -j
    # Default txt report (one row per file), folded into one line per src/
    # subsystem (net, dns, sim, ...) plus gcovr's own TOTAL row.
    gcovr --root . --filter 'src/' --object-directory "${PREFIX}-cov" \
      | tee "${PREFIX}-cov/coverage.txt" \
      | awk '
          /^TOTAL/ { print; next }
          match($1, /^src\/[^/]+\//) {
            dir = substr($1, RSTART, RLENGTH)
            lines[dir] += $2; cov[dir] += $3
          }
          END {
            for (d in lines)
              printf "%-16s %6d lines %6.1f%% covered\n",
                     d, lines[d], lines[d] ? 100 * cov[d] / lines[d] : 0
          }' | sort
  else
    echo "CD_COVERAGE=1 set but gcovr not installed; skipping coverage"
  fi
fi

echo "=== golden capture readable by stock tooling ==="
# The fixture claims to be a standard pcap; let an independent reader vouch
# for it when one is installed (CI images without tcpdump skip gracefully).
if command -v tcpdump >/dev/null 2>&1; then
  tcpdump -r tests/fixtures/quickstart.pcap -c 5 >/dev/null
  echo "tcpdump read the golden fixture"
else
  echo "tcpdump not installed; skipping read-back check"
fi

echo "=== ci.sh: all green ==="
