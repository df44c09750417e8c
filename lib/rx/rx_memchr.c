/* libc memchr for the lazy DFA's skip lanes.
 *
 * The skip lanes hunt one byte (a FIRST byte, a literal's rarest byte,
 * or '\n' for line jumps) through stretches of the subject no match can
 * start in.  [String.index_from] is a byte-at-a-time OCaml loop; libc's
 * memchr scans a word or vector at a time.  The stub is [@@noalloc]
 * with untagged ints, so a call costs about a C function call.
 *
 * rx_memchr_unboxed(s, c, from) is the index of the first byte equal to
 * [c] in [s] at or after [from], or -1 when there is none or when
 * [from] lies outside [0, length s) -- in particular when
 * [from >= length s]. */

#include <caml/mlvalues.h>
#include <string.h>

intnat rx_memchr_unboxed(value s, intnat c, intnat from)
{
  intnat len = (intnat)caml_string_length(s);
  if ((uintnat)from >= (uintnat)len) return -1;
  const char *base = String_val(s);
  const char *hit = memchr(base + from, (int)c, (size_t)(len - from));
  return hit == NULL ? -1 : (intnat)(hit - base);
}

CAMLprim value rx_memchr(value s, value c, value from)
{
  return Val_long(rx_memchr_unboxed(s, Long_val(c), Long_val(from)));
}
