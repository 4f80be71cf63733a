(** Communication accounting.

    [BITS_ℓ(Π)] in the paper is the worst-case number of bits sent by honest
    parties; the simulator reports the bits actually sent by honest parties in
    a run (self-addressed messages are free, matching the model where "send to
    all" includes remembering your own value).

    Each message costs [8 × bytes] — the wire is byte-aligned, a documented
    constant-factor deviation (DESIGN.md). Byzantine traffic is tracked
    separately for diagnostics but never counts toward [honest_bits].

    Per-label counters (see {!Proto.with_label}) drive the component-ablation
    experiment: bits are attributed to the sending party's innermost active
    label. *)

type t = {
  mutable rounds : int;
  mutable honest_bits : int;
  mutable honest_msgs : int;
  mutable byz_bits : int;
  mutable byz_msgs : int;
  by_label : (string, int) Hashtbl.t;
}

let create () =
  {
    rounds = 0;
    honest_bits = 0;
    honest_msgs = 0;
    byz_bits = 0;
    byz_msgs = 0;
    by_label = Hashtbl.create 16;
  }

let no_label = "(unlabeled)"

let is_empty m =
  m.rounds = 0 && m.honest_bits = 0 && m.honest_msgs = 0 && m.byz_bits = 0
  && m.byz_msgs = 0
  && Hashtbl.length m.by_label = 0

(* [Hashtbl.find] + [Not_found] rather than [find_opt]: this runs once per
   honest sender row per round, the lookup hits on all but a label's first
   row, and [find_opt]'s [Some] box is pure allocation on that path. A row
   with no message leaves the label table untouched, exactly as no call
   would; a row of empty messages still enters its label (with 0 bits). *)
let record_honest_row m ~label ~msgs ~bytes =
  if msgs > 0 then begin
    let bits = 8 * bytes in
    m.honest_bits <- m.honest_bits + bits;
    m.honest_msgs <- m.honest_msgs + msgs;
    let label = match label with Some l -> l | None -> no_label in
    let prior = match Hashtbl.find m.by_label label with b -> b | exception Not_found -> 0 in
    Hashtbl.replace m.by_label label (bits + prior)
  end

let record_honest m ~label ~bytes = record_honest_row m ~label ~msgs:1 ~bytes

let record_byzantine m ~bytes =
  m.byz_bits <- m.byz_bits + (8 * bytes);
  m.byz_msgs <- m.byz_msgs + 1

(* Counters sum; rounds take the max — concurrent sessions overlap in time,
   so an aggregate's round count is its longest member's, not the total. *)
let merge ~into src =
  into.rounds <- max into.rounds src.rounds;
  into.honest_bits <- into.honest_bits + src.honest_bits;
  into.honest_msgs <- into.honest_msgs + src.honest_msgs;
  into.byz_bits <- into.byz_bits + src.byz_bits;
  into.byz_msgs <- into.byz_msgs + src.byz_msgs;
  Hashtbl.iter
    (fun label bits ->
      Hashtbl.replace into.by_label label
        (bits + Option.value ~default:0 (Hashtbl.find_opt into.by_label label)))
    src.by_label

(* Point-in-time copy: the scalar fields are copied by the record update,
   the label table explicitly (it is shared mutable state otherwise). *)
let snapshot m = { m with by_label = Hashtbl.copy m.by_label }

(* [diff ~after ~before]: counters accumulated between two snapshots of the
   same run — the per-interval attribution primitive. [rounds] subtracts
   (rounds of one run are a monotone counter, not a max-merge). Labels whose
   delta is zero are dropped. *)
let diff ~after ~before =
  let by_label = Hashtbl.create 16 in
  Hashtbl.iter
    (fun label bits ->
      let d = bits - Option.value ~default:0 (Hashtbl.find_opt before.by_label label) in
      if d <> 0 then Hashtbl.replace by_label label d)
    after.by_label;
  {
    rounds = after.rounds - before.rounds;
    honest_bits = after.honest_bits - before.honest_bits;
    honest_msgs = after.honest_msgs - before.honest_msgs;
    byz_bits = after.byz_bits - before.byz_bits;
    byz_msgs = after.byz_msgs - before.byz_msgs;
    by_label;
  }

(* Bits descending, then label ascending: ties (equal-cost components are
   common in lock-step protocols) must not depend on hash-table order. *)
let labels m =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) m.by_label []
  |> List.sort (fun (la, a) (lb, b) ->
         if a <> b then compare b a else compare la lb)

let pp fmt m =
  Format.fprintf fmt "rounds=%d honest_bits=%d honest_msgs=%d" m.rounds
    m.honest_bits m.honest_msgs
