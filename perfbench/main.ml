(* The repository benchmark. One command, one workload per invocation:

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   It drives the public API from outside — [Engine.run_core] running
   [Convex.agree_int] sessions over [Net.Transport.loopback] (replayed over
   a [Net_poll] mesh), inputs from the [Workload] generators,
   library defaults everywhere — checks every output, and prints one JSON
   object as its last line. [--trace 0] reports the end-to-end metrics,
   [--trace 1] the per-layer ones (see README.md in this directory for the
   metric map).

   Arrival model: synchronous lock-step rounds, no injected message delay, so
   latency is processor time only. Sessions arrive on the engine's round
   clock ([start_round] fixed up front): an open schedule on a virtual
   clock. A run prepares one seed-derived batch of sessions and repeats it for
   [--seconds]; every repetition must reproduce the first one's deterministic
   ledger. *)

let now_s = Layers.now_s
let ns x = float_of_int x *. 1e-9

(* ---- workloads ------------------------------------------------------------ *)

type session = {
  reported : Bigint.t array;  (** per-party inputs, corrupt parties included *)
  faulty : bool;
}

type workload = {
  name : string;
  n : int;
  t : int;
  bits : int;  (** input length ℓ (approximate for sensor readings) *)
  sessions_per_batch : int;
  setup_reps : int;
      (** set-up timings before the measured phase: enough that their median
          is steady, few enough to fit a run *)
  auth : bool;
  gen : Net.Prng.t -> session array;
}

let mux_sim =
  let n = 7 and t = 2 and k = 384 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  {
    name = "mux-sim";
    n;
    t;
    bits = 64;
    sessions_per_batch = k;
    setup_reps = 49;
    auth = false;
    gen =
      (fun rng ->
        Array.init k (fun i ->
            let honest = Workload.clustered_bits rng ~n ~bits:64 ~shared_prefix_bits:32 in
            (* Every 4th session is faulty: equivocation plus outlier inputs. *)
            let faulty = i mod 4 = 3 in
            let reported =
              if faulty then Workload.apply_input_attack Outlier_high ~corrupt honest else honest
            in
            { reported; faulty }));
  }

let long_value =
  let n = 13 and t = 4 and bits = 1 lsl 16 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  {
    name = "long-value";
    n;
    t;
    bits;
    sessions_per_batch = 1;
    setup_reps = 7;
    auth = false;
    gen =
      (fun rng ->
        let honest = Workload.clustered_bits rng ~n ~bits ~shared_prefix_bits:(bits / 2) in
        (* High outliers: [Workload.apply_input_attack Outlier_high] places
           2^400, which is below every ℓ-bit honest input here. *)
        let outlier = Bigint.pow2 (bits + 1) in
        let reported = Array.mapi (fun i v -> if corrupt.(i) then outlier else v) honest in
        [| { reported; faulty = true } |]);
  }

(* The authenticated path ([Workload.pi_z_auth]). Its sessions are too long
   for a steady timed workload of their own on a shared host, so a traced
   run executes one of them as a per-layer probe. *)
let auth_short =
  let n = 4 and t = 1 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  {
    name = "auth-short";
    n;
    t;
    bits = 20;
    sessions_per_batch = 1;
    setup_reps = 1;
    auth = true;
    gen =
      (fun rng ->
        let honest = Workload.sensor_readings rng ~n ~base:(-1004) ~jitter:2 in
        [| { reported = Workload.apply_input_attack Outlier_high ~corrupt honest; faulty = true } |]);
  }

let workloads = [ mux_sim; long_value ]

(* ---- one batch ------------------------------------------------------------ *)

(* Everything a batch needs before its first round: inputs, the PKI (fresh
   per session, as [Workload.pi_z_auth] requires) and, for the poll replay,
   the socket mesh. *)
type prepared = {
  sessions : session array;
  setups : Auth.Setup.t option array;
  mesh : Net_poll.t option;
}

let prepare w ~seed =
  let sessions = w.gen (Net.Prng.create seed) in
  let setups =
    Array.mapi
      (fun i _ ->
        if w.auth then
          Some
            (Auth.Setup.generate ~seed:((seed * 7919) + i) ~n:w.n
               ~capacity:(Auth.Auth_ba.required_capacity ~t:w.t ~instances:64))
        else None)
      sessions
  in
  { sessions; setups; mesh = None }

let corrupt_of w = Workload.spread_corrupt ~n:w.n ~t:w.t

let specs w ~seed ?tracer p =
  let traced f = match tracer with Some tr -> f tr | None -> Fun.id in
  Array.to_list
    (Array.mapi
       (fun i s ->
         let agree =
           match p.setups.(i) with
           | Some setup -> (Workload.pi_z_auth setup).Workload.run
           | None -> Convex.agree_int
         in
         let f ctx = agree ctx s.reported.(ctx.Net.Ctx.me) in
         let adversary =
           if s.faulty then Net.Adversary.equivocate ~seed:((seed * 65537) + i)
           else Net.Adversary.passive
         in
         Engine.session ~sid:i ~start_round:i
           ~adversary:(traced Layers.adversary adversary)
           ~setup:(if w.auth then `Authenticated else `Plain)
           (traced Layers.protocol f))
       p.sessions)

(* The deterministic ledger of a batch: what must repeat exactly across
   repetitions, across seeds-equal runs and between sim and poll. *)
type ledger = {
  engine_rounds : int;
  frames_sent : int;
  naive_frames : int;
  frame_bytes : int;
  payload_bytes : int;
  per_session : (int * int * (string * int) list) list;  (** rounds, bits, labels *)
}

let ledger_of (o : Bigint.t Engine.outcome) =
  let a = o.Engine.aggregate in
  {
    engine_rounds = a.Engine.engine_rounds;
    frames_sent = a.Engine.frames_sent;
    naive_frames = a.Engine.naive_frames;
    frame_bytes = a.Engine.frame_bytes;
    payload_bytes = a.Engine.payload_bytes;
    per_session =
      List.map
        (fun r ->
          let m = r.Engine.r_metrics in
          (m.Net.Metrics.rounds, m.Net.Metrics.honest_bits, Net.Metrics.labels m))
        o.Engine.sessions;
  }

(* Definition 1 on one session: every honest party terminated, they agree,
   and the output lies within the honest inputs' range. *)
let session_ok ~corrupt (s : session) r =
  match Engine.honest_outputs ~corrupt r with
  | exception _ -> false
  | [] -> false
  | v :: rest as outs ->
      let honest_inputs =
        List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list s.reported)
      in
      List.for_all (Bigint.equal v) rest
      && List.for_all (fun o -> Convex.in_convex_hull ~inputs:honest_inputs o) outs

type batch_result = {
  wall_s : float;
  cpu_s : float;  (** process CPU time, user + sys *)
  round_s : float array;  (** wall time of each engine round *)
  latencies : float array;
      (** per session: start of its admission round to end of its retirement round *)
  minor_words : float;
  failed : int;
  ledger : ledger option;
  poll_stats : Net_poll.stats option;
}

(* [tracer] times protocols and adversaries; [timer] the transport. *)
let run_batch w ~seed ?tracer ?timer p =
  let corrupt = corrupt_of w in
  let k = Array.length p.sessions in
  let base =
    match p.mesh with Some m -> Net_poll.transport m | None -> Net.Transport.loopback ()
  in
  let transport = match timer with Some tr -> Layers.transport tr base | None -> base in
  let specs = specs w ~seed ?tracer p in
  (* Stamp [r] is the end of engine round [r], taken in [on_round]; round
     [r] starts at stamp [r - 1], round 0 at the call. *)
  let stamps = ref (Array.make 1024 0.) in
  let last = ref (-1) in
  let on_round ~round ~live:_ =
    if round >= Array.length !stamps then begin
      let a = Array.make (2 * round) 0. in
      Array.blit !stamps 0 a 0 (Array.length !stamps);
      stamps := a
    end;
    !stamps.(round) <- now_s ();
    last := round
  in
  (* Every batch starts from a collected heap, so repetitions of a batch
     start from the same state. *)
  Gc.full_major ();
  let w0 = Gc.minor_words () in
  let c0 = Sys.time () in
  let t0 = now_s () in
  let result =
    try Ok (Engine.run_core ~on_round ~transport ~n:w.n ~t:w.t ~corrupt specs)
    with e -> Error e
  in
  let t1 = now_s () in
  let c1 = Sys.time () in
  let w1 = Gc.minor_words () in
  let poll_stats = Option.map Net_poll.stats p.mesh in
  Option.iter Net_poll.close p.mesh;
  let stamp r = if r < 0 then t0 else !stamps.(r) in
  let base =
    {
      wall_s = t1 -. t0;
      cpu_s = c1 -. c0;
      round_s = Array.init (!last + 1) (fun r -> stamp r -. stamp (r - 1));
      latencies = [||];
      minor_words = w1 -. w0;
      failed = k;
      ledger = None;
      poll_stats;
    }
  in
  match result with
  | Error e ->
      Printf.printf "# batch failed: %s\n%!" (Printexc.to_string e);
      base
  | Ok o ->
      let results = Array.of_list o.Engine.sessions in
      let failed = ref (k - Array.length results) in
      Array.iteri
        (fun i r -> if not (session_ok ~corrupt p.sessions.(i) r) then incr failed)
        results;
      {
        base with
        latencies =
          Array.map
            (fun r -> stamp r.Engine.r_retired_at -. stamp (r.Engine.r_admitted_at - 1))
            results;
        failed = !failed;
        ledger = Some (ledger_of o);
      }

(* ---- statistics and output ------------------------------------------------ *)

let quantile xs q =
  let a = Array.copy xs in
  Array.sort compare a;
  let len = Array.length a in
  if len = 0 then nan
  else
    (* Linear interpolation between closest ranks (Hyndman-Fan type 7). On
       long-value's few dozen sessions, p99 then weighs the two slowest
       sessions instead of resting on the slowest alone. *)
    let h = q *. float_of_int (len - 1) in
    let lo = int_of_float h in
    let hi = min (len - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = quantile xs 0.5

type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~attempted ~failed metrics =
  let finite = List.for_all (fun m -> Float.is_finite m.m_value) metrics in
  List.iter
    (fun m -> Printf.printf "# %-40s %20s %s\n" m.m_name (json_number m.m_value) m.m_unit)
    metrics;
  let body =
    String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.m_name
             (if Float.is_finite m.m_value then json_number m.m_value else "null")
             m.m_unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0 && finite) attempted failed body

(* ---- the run ---------------------------------------------------------------- *)

(* Per-label honest bits, as [Net.Metrics] records them. FindPrefix,
   AddLastBit/AddLastBlock and Pi_N's length estimation send nothing in
   their own scope (every round they run is inside a nested Pi_BA or
   Pi_lBA+ scope), so only their self time is reported, in the [ca] group. *)
let bit_labels = [ "pi_ba"; "pi_ba_plus"; "ext_distribute"; "high_cost_ca"; "get_output" ]

let scope_labels =
  bit_labels @ [ "find_prefix"; "find_prefix_blocks"; "add_last_bit"; "add_last_block";
                 "length_estimation" ]

(* Self time is reported per layer group, each of which every workload
   reaches: the BA substrate (phase king), Pi_lBA+ and its dispersal, the CA
   layers above them, and unlabelled top-level work (which includes each
   session's construction). *)
let time_groups =
  [
    ("ba", [ "pi_ba" ]);
    ("pi_ba_plus", [ "pi_ba_plus" ]);
    ("ext_distribute", [ "ext_distribute" ]);
    ( "ca",
      [ "high_cost_ca"; "find_prefix"; "find_prefix_blocks"; "add_last_bit"; "add_last_block";
        "get_output"; "length_estimation" ] );
    ("root", [ Layers.root ]);
  ]

let run w ~seed ~seconds ~trace =
  let k = w.sessions_per_batch in
  let fk = float_of_int k in
  let attempted = ref 0 and failed = ref 0 in
  let reference = ref None in
  let account what (r : batch_result) =
    attempted := !attempted + k;
    failed := !failed + r.failed;
    match (r.ledger, !reference) with
    | Some l, None -> reference := Some l
    | Some l, Some l0 when l <> l0 ->
        Printf.printf "# %s: deterministic ledger differs from the first batch\n%!" what;
        failed := !failed + k - r.failed
    | _ -> ()
  in
  (* Set-up, timed [w.setup_reps] times, each from a collected heap: once
     before the measured phase and the other times after [peak_rss_mb] is
     read, because the heap keeps what each set-up allocated (about 3 MB a
     time on mux-sim) and would otherwise inflate the peak. The timed
     workloads need no PKI and no mesh, and their inputs are immutable, so
     every repetition runs the first batch prepared. *)
  let setup_s = ref [] in
  let time_setup () =
    Gc.full_major ();
    let t0 = now_s () in
    let p = prepare w ~seed in
    setup_s := (now_s () -. t0) :: !setup_s;
    p
  in
  let p = time_setup () in
  (* The measured phase. With tracing, traced and untraced batches alternate. *)
  let untraced = ref [] and traced = ref [] in
  let t_start = now_s () in
  let i = ref 0 in
  (* A batch starts only if, at the pace of the previous one, it ends within
     [seconds]. *)
  let last_batch = ref 0. in
  while
    now_s () -. t_start +. !last_batch <= seconds || !untraced = [] || (trace && !traced = [])
  do
    let t_batch = now_s () in
    let is_traced = trace && !i mod 2 = 1 in
    let r =
      if is_traced then begin
        let tr = Layers.create ~n:w.n in
        let r = run_batch w ~seed ~tracer:tr p in
        traced := (r, tr) :: !traced;
        r
      end
      else begin
        let r = run_batch w ~seed p in
        untraced := r :: !untraced;
        r
      end
    in
    account "batch" r;
    Printf.printf "# batch %d%s: run %.3f s, %.2f sessions/s\n%!" !i
      (if is_traced then " (traced)" else "")
      r.wall_s (fk /. r.wall_s);
    last_batch := now_s () -. t_batch;
    incr i
  done;
  let rss = Option.value (Net_poll.rss_peak_bytes ()) ~default:0 in
  let untraced = Array.of_list (List.rev !untraced) and traced = List.rev !traced in
  Printf.printf "# %s seed %d: %d untraced + %d traced batches of %d sessions in %.2f s\n%!"
    w.name seed (Array.length untraced) (List.length traced) k (now_s () -. t_start);
  for _ = 2 to w.setup_reps do
    ignore (time_setup ())
  done;
  (* The sim = poll contract: the same batch over a [Net_poll] socket mesh
     must reproduce the deterministic ledger exactly. The replay is also
     where the poll transport's per-layer numbers come from. *)
  let timer = Layers.create ~n:w.n in
  let replay = run_batch w ~seed ~timer { p with mesh = Some (Net_poll.create ~n:w.n ()) } in
  account "sim = poll replay" replay;
  Printf.printf "# poll replay: run %.3f s, %.2f sessions/s\n" replay.wall_s (fk /. replay.wall_s);
  let l =
    match !reference with
    | Some l -> l
    | None ->
        print_result ~attempted:!attempted ~failed:!failed [];
        exit 1
  in
  Printf.printf "# deterministic ledger digest: %s\n"
    (Digest.to_hex (Digest.string (Marshal.to_string l [ Marshal.No_sharing ])));
  let per_session f =
    float_of_int (List.fold_left (fun acc s -> acc + f s) 0 l.per_session) /. fk
  in
  let label_bits label =
    per_session (fun (_, _, labs) -> Option.value (List.assoc_opt label labs) ~default:0)
  in
  let sum_over f xs = List.fold_left (fun a x -> a +. f x) 0. xs in
  let untraced_l = Array.to_list untraced in
  let untraced_sessions = fk *. float_of_int (Array.length untraced) in
  let metrics =
    if not trace then begin
      let lat = Array.concat (List.map (fun r -> r.latencies) untraced_l) in
      Printf.printf "# session latency samples: %d (linear interpolation)\n" (Array.length lat);
      [
        metric "sessions_per_s" "1/s" (untraced_sessions /. sum_over (fun r -> r.wall_s) untraced_l);
        metric "cpu_s_per_session" "s" (sum_over (fun r -> r.cpu_s) untraced_l /. untraced_sessions);
        metric "session_p50_s" "s" (quantile lat 0.5);
        metric "session_p99_s" "s" (quantile lat 0.99);
        metric "honest_bits_per_session" "bit" (per_session (fun (_, b, _) -> b));
        metric "rounds_per_session" "round" (per_session (fun (r, _, _) -> r));
        metric "wire_bytes_per_session" "B" (float_of_int l.frame_bytes /. fk);
        metric "peak_rss_mb" "MB" (float_of_int rss /. 1048576.);
        metric "setup_s" "s" (median (Array.of_list !setup_s));
      ]
    end
    else begin
      let sessions = fk *. float_of_int (List.length traced) in
      let sum f = sum_over f traced in
      let wall = sum (fun (r, _) -> r.wall_s) in
      let rounds = sum (fun (r, _) -> Array.fold_left ( +. ) 0. r.round_s) in
      let proto = sum (fun (_, tr) -> ns (Layers.proto_ns tr)) in
      let adversary = sum (fun (_, tr) -> ns tr.Layers.adversary_ns) in
      let label_self label = sum (fun (_, tr) -> ns (Layers.self_ns tr label)) in
      List.iter
        (fun label ->
          Printf.printf "# self time %-20s %.6f s/session\n" label (label_self label /. sessions))
        (Layers.root :: scope_labels);
      let sizes =
        {
          Kernels.n = w.n;
          t = w.t;
          bits = w.bits;
          mean_frame_bytes = float_of_int l.frame_bytes /. float_of_int l.frames_sent;
          entries_per_frame = float_of_int l.naive_frames /. float_of_int l.frames_sent;
        }
      in
      let poll = Option.get replay.poll_stats in
      let kernels = Kernels.run ~seed sizes in
      (* The authenticated path: one auth-short session with a fresh PKI,
         traced and checked like any other. *)
      let auth_tr = Layers.create ~n:auth_short.n in
      let auth = run_batch auth_short ~seed ~tracer:auth_tr (prepare auth_short ~seed) in
      attempted := !attempted + 1;
      failed := !failed + auth.failed;
      let auth_bits =
        match auth.ledger with
        | Some { per_session = [ (_, bits, _) ]; _ } -> float_of_int bits
        | _ -> nan
      in
      [
        metric "trace.overhead_ratio" "ratio"
          (wall /. sessions /. (sum_over (fun r -> r.wall_s) untraced_l /. untraced_sessions));
        metric "trace.session_wall_s" "s/session" (wall /. sessions);
        metric "trace.residual_s" "s/session" ((wall -. rounds) /. sessions);
        metric "engine.round_p50_ms" "ms"
          (median (Array.concat (List.map (fun r -> r.round_s) untraced_l)) *. 1e3);
        metric "engine.self_s" "s/session" ((rounds -. proto -. adversary) /. sessions);
        metric "adversary.self_s" "s/session" (adversary /. sessions);
        metric "engine.minor_words_per_session" "word"
          (sum_over (fun r -> r.minor_words) untraced_l /. untraced_sessions);
        metric "engine.coalesce_ratio" "ratio"
          (float_of_int l.frames_sent /. float_of_int l.naive_frames);
        metric "net_poll.exchange_s" "s/session" (ns timer.Layers.exchange_ns /. fk);
        metric "net_poll.select_wait_mean_us" "us" (poll.Net_poll.p_select_wait_mean_s *. 1e6);
        metric "net_poll.writes_per_round" "count"
          (float_of_int poll.Net_poll.p_writes /. float_of_int (max 1 poll.Net_poll.p_rounds));
        metric "net_poll.minor_words_per_round" "word" poll.Net_poll.p_minor_words_per_round;
        metric "proto.steps_per_session" "count"
          (sum (fun (_, tr) -> float_of_int tr.Layers.steps) /. sessions);
      ]
      @ List.map
          (fun (group, members) ->
            metric ("proto." ^ group ^ ".self_s") "s/session"
              (List.fold_left (fun a lb -> a +. label_self lb) 0. members /. sessions))
          time_groups
      @ List.map
          (fun (name, label) -> metric ("proto." ^ name ^ ".bits_per_session") "bit" (label_bits label))
          (List.map (fun lb -> (lb, lb)) bit_labels @ [ ("root", Layers.root) ])
      @ List.map (fun (name, unit, v) -> metric name unit v) kernels
      @ [
          metric "auth.session_s" "s" auth.wall_s;
          metric "auth.session_bits" "bit" auth_bits;
          metric "auth.auth_ba_self_s" "s" (ns (Layers.self_ns auth_tr "auth_ba"));
        ]
    end
  in
  print_result ~attempted:!attempted ~failed:!failed metrics

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      prerr_endline ("unknown workload: " ^ !workload);
      exit 2
  | Some w -> run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
