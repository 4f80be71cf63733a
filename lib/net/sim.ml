(** Lock-step synchronous execution of [n] protocol instances against a
    rushing Byzantine adversary, with exact communication accounting.

    Every party — corrupted or not — runs its protocol instance; the
    adversary overrides the corrupted parties' outgoing messages each round
    after seeing everyone's prescribed messages (see {!Adversary}). The run
    ends when every honest party has terminated. *)

type 'a outcome = {
  outputs : 'a option array;
      (** Per party: [Some] once its instance terminated. Corrupted parties'
          entries reflect their (adversary-ignored) instance and are reported
          for diagnostics only. *)
  metrics : Metrics.t;
}

exception Round_limit_exceeded of int

let default_max_rounds = 20_000

(* Byzantine messages are truncated to this size: honest-side allocations stay
   bounded no matter what a strategy produces. *)
let max_byzantine_bytes = 1 lsl 22

let run ?(max_rounds = default_max_rounds) ?(allow_excess_corruptions = false) ?trace
    ?telemetry ?(domains = 1) ?(setup = `Plain) ~n ~t ~corrupt ~adversary protocol =
  if Array.length corrupt <> n then invalid_arg "Sim.run: corrupt array size";
  if domains < 1 then invalid_arg "Sim.run: domains < 1";
  let pool = if domains > 1 then Some (Pool.shared ()) else None in
  let make_ctx =
    match setup with
    | `Plain -> Ctx.make
    | `Authenticated -> Ctx.make_authenticated
  in
  let n_corrupt = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 corrupt in
  (* [allow_excess_corruptions] deliberately breaks the t < n/3 contract — the
     resilience experiment measures what fails beyond the bound. *)
  if n_corrupt > t && not allow_excess_corruptions then
    invalid_arg "Sim.run: more corruptions than t";
  let metrics = Metrics.create () in
  let states = Array.init n (fun me -> protocol (make_ctx ~n ~t ~me)) in
  let outputs = Array.make n None in
  let label_stacks = Array.make n [] in
  (* Normalize label/probe nodes so that every state is [Done] or [Step].
     [round] is the session-local number of rounds completed, which is what
     the telemetry records as span enter/exit and probe rounds. *)
  let rec settle ~round i = function
    | Proto.Push (l, rest) ->
        label_stacks.(i) <- l :: label_stacks.(i);
        (match telemetry with
        | Some tm -> Telemetry.push tm ~session:0 ~party:i ~round ~label:l
        | None -> ());
        settle ~round i rest
    | Proto.Pop rest ->
        (label_stacks.(i) <-
           (match label_stacks.(i) with [] -> [] | _ :: tl -> tl));
        (match telemetry with
        | Some tm -> Telemetry.pop tm ~session:0 ~party:i ~round
        | None -> ());
        settle ~round i rest
    | Proto.Probe (key, value, rest) ->
        (match telemetry with
        | Some tm when Telemetry.capture_probes tm ->
            (* The thunk renders the party's full candidate value (O(ℓ));
               only force it when this recorder keeps probes. *)
            Telemetry.probe_event tm ~session:0 ~party:i ~round
              ~byzantine:corrupt.(i) ~key ~value:(value ())
        | Some _ | None -> ());
        settle ~round i rest
    | (Proto.Done _ | Proto.Step _) as s -> s
  in
  Array.iteri (fun i s -> states.(i) <- settle ~round:0 i s) states;
  let honest_running () =
    let running = ref false in
    Array.iteri
      (fun i s ->
        match s with
        | Proto.Step _ when not corrupt.(i) -> running := true
        | _ -> ())
      states;
    !running
  in
  while honest_running () do
    metrics.Metrics.rounds <- metrics.Metrics.rounds + 1;
    if metrics.Metrics.rounds > max_rounds then
      raise (Round_limit_exceeded max_rounds);
    (* 1. Prescribed outboxes for every party. *)
    let prescribed =
      Array.mapi
        (fun _i s ->
          match s with
          | Proto.Step (out, _) -> Array.init n out
          | Proto.Done _ -> Array.make n None
          | Proto.Push _ | Proto.Pop _ | Proto.Probe _ -> assert false)
        states
    in
    (* 2. Rushing adversary picks the corrupted parties' actual messages. *)
    let view =
      { Adversary.round = metrics.Metrics.rounds; n; t; corrupt; prescribed }
    in
    let actual =
      Array.init n (fun s ->
          if not corrupt.(s) then prescribed.(s)
          else
            Array.init n (fun r ->
                match adversary.Adversary.act view ~sender:s ~recipient:r with
                | Some m when String.length m > max_byzantine_bytes ->
                    Some (String.sub m 0 max_byzantine_bytes)
                | other -> other))
    in
    (* 3. Accounting (self-addressed messages are free). A sender's honest
       messages share one label, so the ledger takes one update per row. *)
    for s = 0 to n - 1 do
      let label = match label_stacks.(s) with [] -> None | l :: _ -> Some l in
      let row_msgs = ref 0 and row_bytes = ref 0 in
      for r = 0 to n - 1 do
        if s <> r then
          match actual.(s).(r) with
          | None -> ()
          | Some m ->
              (match trace with
              | Some tr ->
                  Trace.record tr
                    {
                      Trace.round = metrics.Metrics.rounds;
                      src = s;
                      dst = r;
                      bytes = String.length m;
                      byzantine = corrupt.(s);
                      label;
                      session = 0;
                    }
              | None -> ());
              (match telemetry with
              | Some tm ->
                  Telemetry.message tm ~session:0 ~party:s
                    ~round:metrics.Metrics.rounds ~bytes:(String.length m)
                    ~byzantine:corrupt.(s) ()
              | None -> ());
              if corrupt.(s) then
                Metrics.record_byzantine metrics ~bytes:(String.length m)
              else begin
                incr row_msgs;
                row_bytes := !row_bytes + String.length m
              end
      done;
      Metrics.record_honest_row metrics ~label ~msgs:!row_msgs ~bytes:!row_bytes
    done;
    (* 4. Deliver and advance. Party [i]'s continuation reads the shared
       [actual] matrix (frozen for the round) and writes only its own slots —
       [states.(i)], [label_stacks.(i)] and the (0, i) telemetry bucket — so
       the parties of one round advance in parallel without changing a byte:
       accounting (metrics, trace, adversary PRNG order) stayed sequential
       above. *)
    let advance i =
      match states.(i) with
      | Proto.Step (_, k) ->
          let inbox = Array.init n (fun s -> actual.(s).(i)) in
          states.(i) <- settle ~round:metrics.Metrics.rounds i (k inbox)
      | Proto.Done _ -> ()
      | Proto.Push _ | Proto.Pop _ | Proto.Probe _ -> assert false
    in
    (match pool with
    | Some pool -> Pool.parallel_for ~domains pool ~n advance
    | None ->
        for i = 0 to n - 1 do
          advance i
        done)
  done;
  (match telemetry with
  | Some tm ->
      for i = 0 to n - 1 do
        Telemetry.finish tm ~session:0 ~party:i ~round:metrics.Metrics.rounds
      done
  | None -> ());
  Array.iteri
    (fun i s -> match s with Proto.Done v -> outputs.(i) <- Some v | _ -> ())
    states;
  { outputs; metrics }

(** Convenience: run with the first [n_corrupt] parties corrupted. *)
let corrupt_first ~n k =
  if k < 0 || k > n then invalid_arg "Sim.corrupt_first";
  Array.init n (fun i -> i < k)

(** Honest parties' outputs, in party order. Raises [Failure] if any honest
    party failed to terminate (cannot happen unless [max_rounds] was hit —
    termination is part of every protocol's contract). *)
let honest_outputs ~corrupt outcome =
  let out = ref [] in
  Array.iteri
    (fun i o ->
      if not corrupt.(i) then
        match o with
        | Some v -> out := v :: !out
        | None -> failwith (Printf.sprintf "party %d did not terminate" i))
    outcome.outputs;
  List.rev !out
