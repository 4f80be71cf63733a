(** Communication accounting.

    [BITS_ℓ(Π)] in the paper is the number of bits sent by honest parties;
    the simulator reports the bits actually sent by honest parties in a run.
    Self-addressed messages are free (the model's "send to all" includes
    remembering your own value). Each message costs [8 × bytes]: the wire is
    byte-aligned, a documented constant-factor deviation (DESIGN.md).
    Byzantine traffic is tracked separately and never counts toward
    [honest_bits].

    Per-label counters (see {!Proto.with_label}) attribute honest bits to the
    sending party's innermost active label — the basis of the
    component-ablation experiment (T5).

    {b Threading contract}: a [t] is plain mutable state with no internal
    locking — single writer per domain. Parallel runs give every shard
    (session, in the engine's case) a private collector and aggregate via
    {!merge} afterwards; since the counters are sums (and [rounds] a max),
    merging shards in session order reproduces the single-collector table
    exactly, label tie-breaks included. *)

type t = {
  mutable rounds : int;
  mutable honest_bits : int;
  mutable honest_msgs : int;
  mutable byz_bits : int;
  mutable byz_msgs : int;
  by_label : (string, int) Hashtbl.t;
}

val create : unit -> t

val no_label : string
(** Label under which unlabelled traffic is recorded. *)

val is_empty : t -> bool
(** True iff nothing has been recorded: every counter (rounds included) is
    zero and the label table is empty — the state {!create} returns. *)

val record_honest : t -> label:string option -> bytes:int -> unit
(** One honest message of [bytes] bytes, charged to [label]. *)

val record_honest_row : t -> label:string option -> msgs:int -> bytes:int -> unit
(** [msgs] honest messages totalling [bytes] bytes, all charged to [label]
    — one sender's row of a round, with one label-table update. Equal to
    [msgs] calls of {!record_honest} whose sizes sum to [bytes]. *)

val record_byzantine : t -> bytes:int -> unit

val merge : into:t -> t -> unit
(** Accumulate a session's counters into an aggregate: bit/message counters
    and per-label bits are summed; [rounds] takes the max, because concurrent
    sessions overlap in time (the engine's wall-clock is the max, not the
    sum, of its sessions' rounds). *)

val snapshot : t -> t
(** An independent point-in-time copy (label table included); the original
    keeps accumulating without affecting it. *)

val diff : after:t -> before:t -> t
(** Counters accumulated between two snapshots of the same run: every field
    — including [rounds] — subtracts, and zero-delta labels are dropped.
    The per-interval attribution primitive ([snapshot] before, [diff]
    after). *)

val labels : t -> (string * int) list
(** Per-label honest bits, bits descending, ties broken by label ascending —
    fully deterministic. *)

val pp : Format.formatter -> t -> unit
