/* wait4(2) for the benchmark: the child's exit status together with its
   peak resident set size, which Unix.waitpid does not report; and CPU
   pinning of the calling thread, which processes it forks inherit. */

#define _GNU_SOURCE
#include <errno.h>
#include <sched.h>
#include <sys/resource.h>
#include <sys/types.h>
#include <sys/wait.h>

#include <caml/alloc.h>
#include <caml/fail.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/signals.h>

/* perfbench_wait4 pid -> (code, maxrss_kib).  [code] is the exit status
   of a normally exited child and minus the signal number of a killed
   one.  Blocks until the child ends. */
value perfbench_wait4(value vpid)
{
  CAMLparam1(vpid);
  CAMLlocal1(res);
  int status = 0;
  struct rusage ru;
  pid_t pid = Int_val(vpid);
  pid_t r;
  int err = 0;
  caml_enter_blocking_section();
  do {
    r = wait4(pid, &status, 0, &ru);
    err = errno;
  } while (r < 0 && err == EINTR);
  caml_leave_blocking_section();
  if (r < 0) caml_failwith("wait4");
  int code = WIFEXITED(status) ? WEXITSTATUS(status)
                               : -(WIFSIGNALED(status) ? WTERMSIG(status) : 255);
  res = caml_alloc_tuple(2);
  Store_field(res, 0, Val_int(code));
  Store_field(res, 1, Val_long(ru.ru_maxrss));
  CAMLreturn(res);
}

/* perfbench_pin k -> ok: binds the calling thread to the k-th CPU of the
   set the process was first allowed.  False when there is no such CPU or
   the kernel refuses. */
value perfbench_pin(value vk)
{
  static cpu_set_t allowed;
  static int have_allowed = 0;
  cpu_set_t set;
  int k = Int_val(vk), seen = 0;
  if (!have_allowed) {
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return Val_false;
    have_allowed = 1;
  }
  CPU_ZERO(&set);
  for (int c = 0; c < CPU_SETSIZE; c++) {
    if (!CPU_ISSET(c, &allowed)) continue;
    if (seen++ == k) {
      CPU_SET(c, &set);
      return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
    }
  }
  return Val_false;
}
