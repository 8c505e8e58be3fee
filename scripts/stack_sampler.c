// Whole-process CPU stack sampler, linked into a static frame-pointer build
// by scripts/profile_campaign.sh. Every ITIMER_PROF tick (SIGPROF, process
// CPU time across all threads) the handler walks the interrupted thread's
// frame-pointer chain and stores its return addresses; at exit the stacks
// are written to $CD_PROF_OUT, one sample per line, innermost address first
// (hex). Frames without a frame pointer (parts of libc/libstdc++) can end a
// walk early or contribute junk entries; every read goes through
// process_vm_readv, so a bad pointer ends the walk instead of faulting.
#define _GNU_SOURCE
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/syscall.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <ucontext.h>
#include <unistd.h>

enum { kMaxDepth = 48, kMaxSamples = 1 << 16 };

static uintptr_t g_stacks[kMaxSamples][kMaxDepth];
static unsigned char g_depth[kMaxSamples];
static int g_count;  // samples taken (claimed atomically)

/// Copies two words at `fp` (saved frame pointer, return address); false
/// when the address is not readable.
static int read_frame(uintptr_t fp, uintptr_t out[2]) {
  struct iovec local = {out, 2 * sizeof(uintptr_t)};
  struct iovec remote = {(void*)fp, 2 * sizeof(uintptr_t)};
  return syscall(SYS_process_vm_readv, getpid(), &local, 1, &remote, 1, 0) ==
         (long)(2 * sizeof(uintptr_t));
}

static void on_prof(int sig, siginfo_t* info, void* raw) {
  (void)sig;
  (void)info;
  const int slot = __atomic_fetch_add(&g_count, 1, __ATOMIC_RELAXED);
  if (slot >= kMaxSamples) return;
  const ucontext_t* uc = (const ucontext_t*)raw;
  uintptr_t* stack = g_stacks[slot];
  int depth = 0;
  stack[depth++] = (uintptr_t)uc->uc_mcontext.gregs[REG_RIP];
  uintptr_t fp = (uintptr_t)uc->uc_mcontext.gregs[REG_RBP];
  const uintptr_t sp = (uintptr_t)uc->uc_mcontext.gregs[REG_RSP];
  uintptr_t frame[2];
  // A frame lies above the stack pointer, and each caller's frame above its
  // callee's; anything else is a register that was not a frame pointer.
  while (depth < kMaxDepth && fp >= sp && (fp & 7) == 0 &&
         read_frame(fp, frame) && frame[1] != 0) {
    stack[depth++] = frame[1] - 1;  // inside the call instruction
    if (frame[0] <= fp) break;
    fp = frame[0];
  }
  g_depth[slot] = (unsigned char)depth;
}

static void dump(void) {
  const char* path = getenv("CD_PROF_OUT");
  if (path == NULL) return;
  struct itimerval off = {{0, 0}, {0, 0}};
  setitimer(ITIMER_PROF, &off, NULL);
  FILE* out = fopen(path, "w");
  if (out == NULL) return;
  const int taken = __atomic_load_n(&g_count, __ATOMIC_RELAXED);
  const int n = taken < kMaxSamples ? taken : kMaxSamples;
  for (int i = 0; i < n; ++i) {
    for (int d = 0; d < g_depth[i]; ++d) {
      fprintf(out, d == 0 ? "%lx" : " %lx", (unsigned long)g_stacks[i][d]);
    }
    fputc('\n', out);
  }
  fclose(out);
}

__attribute__((constructor)) static void start(void) {
  if (getenv("CD_PROF_OUT") == NULL) return;
  struct sigaction sa = {0};
  sa.sa_sigaction = on_prof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigaction(SIGPROF, &sa, NULL);
  struct itimerval every = {{0, 1000}, {0, 1000}};  // asks for 1 ms
  setitimer(ITIMER_PROF, &every, NULL);
  atexit(dump);
}
