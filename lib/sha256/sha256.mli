(** SHA-256 (FIPS 180-4), implemented from scratch — the paper's
    collision-resistant hash function [H_κ] with security parameter κ = 256.

    The toolchain ships no cryptography package; this pure-OCaml
    implementation is validated against the NIST test vectors, and its
    compression kernel against a reference copy of a plain one, in the test
    suite. It is the hash of the Merkle-tree accumulators (Section 7) that
    authenticate Π_ℓBA+'s Reed–Solomon dispersal, and that makes it a hot
    path: before the current kernel it was ≈ 40 % of the CPU time of the
    [long-value] benchmark (n = 13, ℓ = 2^16) and ≈ 25 % of [mux-sim]
    (n = 7, ℓ = 64), mostly spent on 65-byte inner nodes (two blocks each).

    The kernel keeps 32-bit words in OCaml ints under two invariants:
    - {e doubled-word rotation}: with [xx = x lor (x lsl 32)], bits
      [n .. n+31] of [xx] are [rotr x n] for every amount used (all ≤ 25), so
      each Σ/σ is three shifts and two xors;
    - {e mask at addition}: the low 32 bits of [+], [lxor], [land], [lor] and
      [lnot] depend only on the low 32 bits of their operands, so words are
      masked once, where a sum feeds a working variable, the message schedule
      or the chaining state, and every word that is shifted right is masked. *)

val digest_size : int
(** 32 bytes (κ / 8). *)

val digest : string -> string
(** [digest msg] is the 32-byte (binary) SHA-256 digest of [msg]. *)

val hex : string -> string
(** [hex msg] is the lowercase hex rendering of [digest msg]. *)

val to_hex : string -> string
(** Hex-encodes an already-computed binary digest (or any string). *)

type ctx
(** Streaming interface. *)

val init : unit -> ctx
val feed : ctx -> string -> unit
val finalize : ctx -> string
(** May be called once; the context must not be reused afterwards (except via
    {!reset}). *)

(** {2 Allocation-free hot path}

    Merkle building hashes millions of tiny leaf/node records; these entry
    points let one context be reused across digests with zero per-digest
    allocation: [reset; feed_*; finalize_into]. *)

val reset : ctx -> unit
(** Return a context (finalized or not) to the pristine [init] state. *)

val feed_byte : ctx -> int -> unit
(** Feed one byte (the low 8 bits of the argument). *)

val feed_bytes : ctx -> Bytes.t -> pos:int -> len:int -> unit
(** Feed [len] bytes of [b] starting at [pos]. The range is validated. Whole
    64-byte blocks are compressed straight from [b], at any offset; only a
    partial head and tail are copied into the context. Either way the bytes
    are consumed before returning, so the caller may mutate [b] after.
    Raises [Invalid_argument] on an out-of-range slice. *)

val finalize_into : ctx -> Bytes.t -> pos:int -> unit
(** Write the 32-byte digest at [out.(pos)] without allocating. Same
    single-use contract as {!finalize}; {!reset} re-arms the context. *)
