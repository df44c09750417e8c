(** Little-endian binary encode/decode primitives.

    Used by the rule-pack codec.  Writers append to a [Buffer.t].
    Readers consume a string through a mutable cursor; running off the
    end raises {!Truncated} and malformed content {!Corrupt} — wrap a
    whole decode in {!protect} to turn both into a [result].  Decoders
    never read outside the reader's window, so adversarial bytes can
    only produce typed errors. *)

exception Truncated
exception Corrupt of string

val w_u8 : Buffer.t -> int -> unit
val w_u32 : Buffer.t -> int -> unit

val w_str : Buffer.t -> string -> unit
(** Length (u32) prefixed bytes. *)

val w_opt : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit
val w_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit

type r
(** A read cursor over a string window. *)

val reader : ?pos:int -> ?stop:int -> string -> r
val r_u8 : r -> int
val r_u32 : r -> int

val r_str : r -> string

val r_view : r -> int -> r
(** A sub-reader over the next [n] bytes, sharing the backing string
    (no copy); the parent cursor advances past them. *)

val r_opt : (r -> 'a) -> r -> 'a option
val r_count : ?limit:int -> r -> int
(** A u32 element count, capped (default 2^24) so forged counts cannot
    provoke giant allocations. *)

val r_list : (r -> 'a) -> r -> 'a list
val r_array : (r -> 'a) -> r -> 'a array
val at_end : r -> bool

val protect : (unit -> 'a) -> ('a, string) result
(** Runs a decoder, catching {!Truncated} and {!Corrupt}. *)

val hash64 : ?pos:int -> ?len:int -> string -> int64
(** XXH64 of the byte range (whole string by default), via a C stub —
    fast enough to checksum a whole rule pack on the cold-start path.
    Not cryptographic: an integrity check against corruption, not an
    authenticity mechanism. *)

val save_atomic : path:string -> (out_channel -> unit) -> unit
(** [save_atomic ~path write] runs [write] on a fresh [path ^ ".tmp"],
    closes it (flush errors included) and renames it over [path].  On
    any failure the temporary file is removed and the exception
    ([Sys_error] for I/O) re-raised, leaving an existing [path]
    byte-identical. *)
