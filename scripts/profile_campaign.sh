#!/usr/bin/env bash
# Whole-process CPU profile of the perfbench campaign: builds the campaign
# binary statically with frame pointers and the SIGPROF stack sampler of
# scripts/stack_sampler.c linked in (nothing under perfbench/ changes), runs
# one campaign per world, and prints self and inclusive shares per function
# summed over the worlds. Unlike gprof it sees libc and libstdc++ too.
#
# Usage: scripts/profile_campaign.sh [--workload=poison|transport] [--seed=N]
#            [--worlds=N] [--shards=N] [--threads=N] [--top=N]
#            [--match=REGEX]... [--callers=REGEX]... [build-dir]
#   Worlds are seeded seed*8+i like perfbench/run.py (defaults: poison,
#   seed 1, 8 worlds, 64 shards, 1 thread, top 25; build-dir build-prof).
#   Each --match prints the summed self share of the functions whose
#   demangled name matches REGEX (Python syntax), e.g. a layer:
#   --match='EventLoop::', and the share of samples with any of them on
#   the stack (inclusive). Each --callers prints the most common chains of
#   up to three frames, a matching function and its two nearest callers,
#   counting each sample once at its innermost match, e.g.
#   --callers='hash_suffixes' splits that function's samples by who asked.
#   A leaf function that sets up no frame of its own is charged straight
#   to its caller's caller, so read such a chain one frame up.
# The kernel delivers ITIMER_PROF about every 4 ms whatever interval is
# asked for, so a campaign yields only a few hundred samples: sum over at
# least 8 worlds before reading a share to a percent.
set -euo pipefail
cd "$(dirname "$0")/.."

WORKLOAD=poison
SEED=1
WORLDS=8
SHARDS=64
THREADS=1
TOP=25
MATCHES=()
CALLERS=()
BUILD=build-prof
for arg in "$@"; do
  case "$arg" in
    --workload=*) WORKLOAD="${arg#*=}" ;;
    --seed=*) SEED="${arg#*=}" ;;
    --worlds=*) WORLDS="${arg#*=}" ;;
    --shards=*) SHARDS="${arg#*=}" ;;
    --threads=*) THREADS="${arg#*=}" ;;
    --top=*) TOP="${arg#*=}" ;;
    --match=*) MATCHES+=("${arg#*=}") ;;
    --callers=*) CALLERS+=("${arg#*=}") ;;
    --*) echo "profile_campaign: unknown flag $arg" >&2; exit 2 ;;
    *) BUILD="$arg" ;;
  esac
done

mkdir -p "${BUILD}"
SAMPLER="$(pwd)/${BUILD}/stack_sampler.o"
cc -O2 -fno-omit-frame-pointer -c scripts/stack_sampler.c -o "${SAMPLER}"
cmake -S perfbench -B "${BUILD}" \
  -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-static ${SAMPLER}" >/dev/null
cmake --build "${BUILD}" -j 2 --target campaign >/dev/null

OUT="${BUILD}/samples"
rm -rf "${OUT}"
mkdir -p "${OUT}"
for ((i = 0; i < WORLDS; ++i)); do
  world=$((SEED * 8 + i))
  CD_PROF_OUT="${OUT}/world-${world}.txt" "${BUILD}/campaign" \
    --workload "${WORKLOAD}" --seed "${world}" --shards "${SHARDS}" \
    --threads "${THREADS}" --spill-dir "${OUT}/spill" >/dev/null
done
rm -rf "${OUT}/spill"

nm -C -n --defined-only "${BUILD}/campaign" > "${OUT}/symbols.txt"
python3 - "${OUT}" "${TOP}" "${#MATCHES[@]}" \
  "${MATCHES[@]+"${MATCHES[@]}"}" "${CALLERS[@]+"${CALLERS[@]}"}" <<'EOF'
import bisect, collections, glob, os, re, sys

out, top, n_match = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
patterns, callers = sys.argv[4:4 + n_match], sys.argv[4 + n_match:]
addrs, names = [], []
for line in open(os.path.join(out, "symbols.txt")):
    parts = line.rstrip("\n").split(" ", 2)
    if len(parts) == 3 and parts[1] in "tTwW":
        addrs.append(int(parts[0], 16))
        names.append(parts[2])

def name_of(pc):
    i = bisect.bisect_right(addrs, pc) - 1
    return names[i] if i >= 0 else "?"

self_n, incl_n, stacks = collections.Counter(), collections.Counter(), []
for path in glob.glob(os.path.join(out, "world-*.txt")):
    for line in open(path):
        pcs = line.split()
        if not pcs:
            continue
        frames = [name_of(int(pc, 16)) for pc in pcs]
        stacks.append(frames)
        self_n[frames[0]] += 1
        incl_n.update(set(frames))
total = len(stacks)
if total == 0:
    sys.exit("profile_campaign: no samples")

def pct(n):
    return f"{100.0 * n / total:6.2f}%"

print(f"{total} samples")
for title, counts in (("self", self_n), ("inclusive", incl_n)):
    print(f"\n== {title} ==")
    for name, n in counts.most_common(top):
        print(f"{pct(n)}  {name[:140]}")
for pattern in patterns:
    rx = re.compile(pattern)
    n = sum(c for name, c in self_n.items() if rx.search(name))
    k = sum(any(rx.search(f) for f in frames) for frames in stacks)
    print(f"\n/{pattern}/: self {pct(n)} ({n} samples), "
          f"inclusive {pct(k)} ({k} samples)")
for pattern in callers:
    rx = re.compile(pattern)
    chains = collections.Counter()
    for frames in stacks:
        for i, f in enumerate(frames):
            if rx.search(f):
                chains[" <- ".join(g[:70] for g in frames[i:i + 3])] += 1
                break
    print(f"\n== callers of /{pattern}/: {sum(chains.values())} samples ==")
    for chain, n in chains.most_common(top):
        print(f"{pct(n)}  {chain}")
EOF
