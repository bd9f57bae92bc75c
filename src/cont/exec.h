#pragma once

#include "arch/ctx.h"
#include "cont/segment.h"

namespace mp::cont {

struct ExecContext;

namespace detail {
// Returns the ExecContext's cached stack slots and continuation cores to the
// global pools (cont.cpp); called by the ExecContext destructor.
void drain_exec_caches(ExecContext& ex) noexcept;
}  // namespace detail

// Per-proc execution state visible to the continuation layer.  The platform
// backends own one ExecContext per proc; a thread-local pointer names the one
// belonging to the proc currently executing on this kernel thread (in the
// simulator everything runs on one kernel thread and the engine retargets the
// pointer on every virtual-proc switch).
struct ExecContext {
  // Segment the proc is executing on; the proc holds one ("running")
  // reference to it.  Null while the proc sits in its idle loop.
  StackSegment* seg = nullptr;

  // Head of the GC root chain of the logical thread currently executing.
  // Opaque to this layer; saved into and restored from continuations.
  void* root_head = nullptr;

  // Segment whose running reference must be dropped by the next resume
  // point.  A proc abandoning its segment cannot free it while still
  // executing on it, so the drop is deferred across the context switch.
  StackSegment* pending_release = nullptr;

  // Continuation core whose reference must be dropped by the next resume
  // point.  The side firing a continuation hands its reference across the
  // context switch this way, so the core stays alive until the resumed side
  // has read the delivered value.
  ContCore* pending_unref = nullptr;

  // Where release_proc()/exit_to_idle() returns control: the proc's idle
  // loop, owned by the platform backend.
  arch::Context* idle_ctx = nullptr;

  // caught_exception_top() when the current segment was last entered.  A
  // direct transfer that finds another top is inside a catch handler of the
  // segment's own frames (cont.cpp).
  void* caught_base = nullptr;

  // Sanitizer identity of the idle loop's stack (arch/fiber_san.h): the
  // TSan fiber is captured by enter_from_idle before it suspends; the ASan
  // bounds are captured on the client side of that switch, where the
  // sanitizer reports the bounds of the stack just left (san_from_idle
  // marks the one arrival that should record them).  All dead weight in
  // unsanitized builds.
  void* san_idle_fiber = nullptr;
  const void* san_idle_bottom = nullptr;
  std::size_t san_idle_size = 0;
  bool san_from_idle = false;

  // This proc's recycled stack slots (cont/segment.h) and continuation
  // cores: owner-only free lists in the ProcCore recycled-cell shape, so
  // fork/capture/resume at steady state touch neither the pool lock nor
  // malloc.  Cores chain through their registry link.
  StackCache stack_cache;
  ContCore* core_cache = nullptr;
  int core_cache_count = 0;

  ExecContext() = default;
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;
  ~ExecContext() { detail::drain_exec_caches(*this); }

  // Drop any deferred references.  Called at every resume point (after the
  // resumed code has read the fired continuation's value slot).
  void process_pending() noexcept {
    if (pending_release != nullptr) {
      StackSegment* seg_to_drop = pending_release;
      pending_release = nullptr;
      seg_to_drop->drop_ref();
    }
    if (pending_unref != nullptr) {
      ContCore* core_to_drop = pending_unref;
      pending_unref = nullptr;
      cont_unref(core_to_drop);
    }
  }
};

// The executing proc's context; set by the platform backends.
ExecContext* current_exec() noexcept;
void set_current_exec(ExecContext* exec) noexcept;

// Top of this kernel thread's stack of caught C++ exceptions (null outside
// every catch handler).  Out of line, like current_exec(): a thread of
// control may come back on another kernel thread after a switch.
void* caught_exception_top() noexcept;

}  // namespace mp::cont
