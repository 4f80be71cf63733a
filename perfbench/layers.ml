(* Per-layer time attribution from outside the library, through its public
   seams only.

   Protocol layers: [wrap] rewrites a [Net.Proto.t] over its exposed
   constructors. Every send function and every continuation is timed and
   charged to the innermost [Proto.with_label] scope active at that [Step]
   (the same label [Net.Metrics] charges the step's bits to). The engine calls
   a step's send function once per recipient, in recipient order 0 .. n-1, so
   the clock is read at recipient 0 and at recipient n-1 only: two reads per
   send function, two per continuation.

   Known coarsening: a continuation runs until the protocol's next [Step], so
   work a caller does after a sub-protocol's last round (and before its own
   next round) is charged to the sub-protocol's label. For instance Pi_N's
   final [Bigint.of_bitstring] lands in [pi_ba].

   Adversaries: [adversary] wraps a strategy's [act], which the engine calls
   once per (corrupt sender, recipient) pair, recipients in order 0 .. n-1;
   the clock is read at recipients 0 and n-1 of each sender.

   Transport: [transport] wraps [Net.Transport.exchange] with the same
   clock. Everything else inside an engine round (scheduling, coalescing,
   ledger, GC) is the engine's self time. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type t = {
  n : int;
  slots : (string, int) Hashtbl.t;  (** label -> index into [self_ns] *)
  mutable self_ns : int array;
  mutable steps : int;
  mutable adversary_ns : int;
  mutable exchange_ns : int;
  mutable send_start : int;
  mutable act_start : int;
}

let root = Net.Metrics.no_label

let create ~n =
  {
    n;
    slots = Hashtbl.create 16;
    self_ns = [||];
    steps = 0;
    adversary_ns = 0;
    exchange_ns = 0;
    send_start = 0;
    act_start = 0;
  }

let slot tr label =
  match Hashtbl.find_opt tr.slots label with
  | Some i -> i
  | None ->
      let i = Hashtbl.length tr.slots in
      Hashtbl.replace tr.slots label i;
      tr.self_ns <- Array.append tr.self_ns [| 0 |];
      i

let charge tr i t0 = tr.self_ns.(i) <- tr.self_ns.(i) + (now_ns () - t0)

let rec wrap tr stack p =
  match p with
  | Net.Proto.Done _ -> p
  | Net.Proto.Step (out, k) ->
      let cur = List.hd stack in
      let last = tr.n - 1 in
      let out' r =
        if r = 0 then tr.send_start <- now_ns ();
        let m = out r in
        if r = last then charge tr cur tr.send_start;
        m
      in
      Net.Proto.Step
        ( out',
          fun inbox ->
            let t0 = now_ns () in
            let next = k inbox in
            charge tr cur t0;
            tr.steps <- tr.steps + 1;
            wrap tr stack next )
  | Net.Proto.Push (label, rest) ->
      Net.Proto.Push (label, wrap tr (slot tr label :: stack) rest)
  | Net.Proto.Pop rest ->
      let outer = match stack with _ :: (_ :: _ as s) -> s | s -> s in
      Net.Proto.Pop (wrap tr outer rest)
  | Net.Proto.Probe (key, value, rest) -> Net.Proto.Probe (key, value, wrap tr stack rest)

(* A session's protocol with its construction (everything up to the first
   round) charged to the root scope. *)
let protocol tr f ctx =
  let r = slot tr root in
  let t0 = now_ns () in
  let p = f ctx in
  charge tr r t0;
  wrap tr [ r ] p

let adversary tr (a : Net.Adversary.t) =
  let last = tr.n - 1 in
  {
    a with
    Net.Adversary.act =
      (fun view ~sender ~recipient ->
        if recipient = 0 then tr.act_start <- now_ns ();
        let m = a.Net.Adversary.act view ~sender ~recipient in
        if recipient = last then tr.adversary_ns <- tr.adversary_ns + (now_ns () - tr.act_start);
        m);
  }

let transport tr (base : Net.Transport.t) =
  {
    base with
    Net.Transport.exchange =
      (fun ~round ~entries ->
        let t0 = now_ns () in
        let out = base.Net.Transport.exchange ~round ~entries in
        tr.exchange_ns <- tr.exchange_ns + (now_ns () - t0);
        out);
  }

let self_ns tr label =
  match Hashtbl.find_opt tr.slots label with Some i -> tr.self_ns.(i) | None -> 0

let proto_ns tr = Array.fold_left ( + ) 0 tr.self_ns
