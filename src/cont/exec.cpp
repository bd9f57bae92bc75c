#include "cont/exec.h"

#include <cxxabi.h>

namespace mp::cont {

namespace {
thread_local ExecContext* tl_exec = nullptr;
}

ExecContext* current_exec() noexcept { return tl_exec; }
void set_current_exec(ExecContext* exec) noexcept { tl_exec = exec; }

void* caught_exception_top() noexcept {
  // caughtExceptions is the first member of the Itanium C++ ABI's
  // __cxa_eh_globals, which cxxabi.h leaves opaque.
  return *reinterpret_cast<void* const*>(abi::__cxa_get_globals());
}

}  // namespace mp::cont
