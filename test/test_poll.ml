(* Poll backend: the event-driven transport must be invisible. Outputs,
   per-session metrics, the aggregate ledger, trace CSV and telemetry JSONL
   must be byte-identical to the simulator on the same seeds — while every
   frame actually moves through nonblocking sockets, including under
   backpressure (outbound rings far smaller than the frames, so bytes park
   and trickle). Plus direct Net_poll unit tests: parking stats, transport
   violations, lifecycle, the /proc memory probes. *)

open Net

let fingerprint_with show (o : _ Engine.outcome) =
  ( List.map
      (fun r ->
        ( r.Engine.r_sid,
          Array.to_list (Array.map (Option.map show) r.Engine.r_outputs),
          ( r.Engine.r_metrics.Metrics.rounds,
            r.Engine.r_metrics.Metrics.honest_bits,
            r.Engine.r_metrics.Metrics.honest_msgs,
            r.Engine.r_metrics.Metrics.byz_bits,
            r.Engine.r_metrics.Metrics.byz_msgs ),
          Metrics.labels r.Engine.r_metrics,
          (r.Engine.r_admitted_at, r.Engine.r_retired_at) ))
      o.Engine.sessions,
    o.Engine.aggregate )

let fingerprint = fingerprint_with Bigint.to_hex

let mk_specs ~n ~sessions ~spacing ~seed =
  List.init sessions (fun k ->
      let inputs =
        let rng = Prng.create (seed + (101 * k)) in
        Workload.clustered_bits rng ~n ~bits:48 ~shared_prefix_bits:16
      in
      Engine.session ~sid:k ~start_round:(spacing * k)
        ~adversary:(Adversary.equivocate ~seed:(seed + (31 * k)))
        (fun ctx -> Convex.agree_int ctx inputs.(ctx.Ctx.me)))

let run_backend backend ~sessions ~spacing ~n ~t ~seed =
  let corrupt = Workload.spread_corrupt ~n ~t in
  let specs = mk_specs ~n ~sessions ~spacing ~seed in
  let trace = Trace.create () in
  let telemetry = Telemetry.create () in
  let outcome =
    match backend with
    | `Sim -> Engine.run_sim ~trace ~telemetry ~n ~t ~corrupt specs
    | `Poll outbuf ->
        Engine.run_poll ?outbuf ~trace ~telemetry ~n ~t ~corrupt specs
    | `Poll_domains d ->
        Engine.run_poll ~domains:d ~trace ~telemetry ~n ~t ~corrupt specs
  in
  (fingerprint outcome, Trace.to_csv trace, Telemetry.to_jsonl telemetry)

let check_poll_equals_sim ~sessions ~spacing ~n ~t ~seed backends =
  let base_fp, base_csv, base_jsonl =
    run_backend `Sim ~sessions ~spacing ~n ~t ~seed
  in
  List.iter
    (fun (label, backend) ->
      let fp, csv, jsonl = run_backend backend ~sessions ~spacing ~n ~t ~seed in
      Alcotest.(check bool)
        (Printf.sprintf "outputs+metrics+ledger (%s)" label)
        true (fp = base_fp);
      Alcotest.(check string)
        (Printf.sprintf "trace CSV byte-identical (%s)" label)
        base_csv csv;
      Alcotest.(check string)
        (Printf.sprintf "telemetry JSONL byte-identical (%s)" label)
        base_jsonl jsonl)
    backends

(* K=8 under equivocate with staggered admission: default rings, starved
   16-byte rings (every frame parks), and a parallel deliver phase must all
   reproduce the simulator byte for byte. *)
let test_poll_equals_sim_k8 () =
  check_poll_equals_sim ~sessions:8 ~spacing:2 ~n:7 ~t:2 ~seed:4242
    [
      ("poll", `Poll None);
      ("poll outbuf=16", `Poll (Some 16));
      ("poll domains=2", `Poll_domains 2);
    ]

let test_poll_equals_sim_k64 () =
  check_poll_equals_sim ~sessions:64 ~spacing:1 ~n:7 ~t:2 ~seed:777
    [ ("poll", `Poll None) ]

(* Single honest sessions that load the wire path from the protocol side:
   Pi_Z on close negative inputs, Pi_N on 160,000-bit values (frames far
   above the socket buffers and the default rings), and two phase-king
   instances side by side under [Proto.both]. Each must match the simulator
   exactly and satisfy agreement and validity. *)
let test_poll_equals_sim_single_sessions () =
  let n = 4 and t = 1 in
  let corrupt = Array.make n false in
  let both_backends show name protocol =
    let specs = [ Engine.session ~sid:0 protocol ] in
    let sim = Engine.run_sim ~n ~t ~corrupt specs in
    let poll = Engine.run_poll ~n ~t ~corrupt specs in
    Alcotest.(check bool)
      (Printf.sprintf "%s: outputs+metrics+ledger poll = sim" name)
      true
      (fingerprint_with show poll = fingerprint_with show sim);
    let r = List.hd poll.Engine.sessions in
    (Engine.honest_outputs ~corrupt r, poll.Engine.aggregate)
  in
  let agreed name = function
    | first :: rest ->
        List.iter
          (fun o -> Alcotest.(check bool) (name ^ ": agreement") true (o = first))
          rest;
        first
    | [] -> Alcotest.fail (name ^ ": no outputs")
  in
  let inputs = [| -1005; -1003; -1004; -1004 |] in
  let outs, _ =
    both_backends Bigint.to_hex "Pi_Z" (fun ctx ->
        Convex.agree_int ctx (Bigint.of_int inputs.(ctx.Ctx.me)))
  in
  let v = agreed "Pi_Z" outs in
  Alcotest.(check bool) "Pi_Z: inside the honest range" true
    (Bigint.compare (Bigint.of_int (-1005)) v <= 0
    && Bigint.compare v (Bigint.of_int (-1003)) <= 0);
  let big = Bigint.pred (Bigint.pow2 160_000) in
  let outs, agg =
    both_backends Bigint.to_hex "Pi_N long values" (fun ctx ->
        Convex.agree_nat ctx (Bigint.sub big (Bigint.of_int ctx.Ctx.me)))
  in
  let v = agreed "Pi_N long values" outs in
  Alcotest.(check bool) "Pi_N long values: inside the honest range" true
    (Bigint.compare (Bigint.sub big (Bigint.of_int (n - 1))) v <= 0
    && Bigint.compare v big <= 0);
  Alcotest.(check bool) "Pi_N long values: moved real bytes" true
    (agg.Engine.payload_bytes > 100_000);
  let inputs_a = [| "x"; "y"; "x"; "x" |] in
  let outs, _ =
    both_backends
      (fun (a, b) -> Printf.sprintf "%s/%b" a b)
      "Proto.both"
      (fun ctx ->
        Proto.both
          (Ba.Phase_king.run_bytes ctx inputs_a.(ctx.Ctx.me))
          (Ba.Phase_king.run_bit ctx (ctx.Ctx.me < 2)))
  in
  let a, _ = agreed "Proto.both" outs in
  Alcotest.(check bool) "Proto.both: branch A output is an input" true
    (Array.exists (String.equal a) inputs_a)

(* A party that raises after a round of real frames: the exception reaches
   the caller, and the mesh's sockets are all closed on the way out. *)
let test_exception_tears_down_mesh () =
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let n = 4 and t = 1 in
  let ( let* ) = Proto.( let* ) in
  let protocol (ctx : Ctx.t) =
    let* _ = Proto.broadcast "r1" in
    if ctx.Ctx.me = 1 then failwith "boom";
    let* _ = Proto.broadcast "r2" in
    Proto.return ()
  in
  let before = open_fds () in
  Alcotest.check_raises "party failure reaches the caller" (Failure "boom")
    (fun () ->
      ignore
        (Engine.run_poll ~n ~t ~corrupt:(Array.make n false)
           [ Engine.session ~sid:0 protocol ]));
  Alcotest.(check int) "no fd leaked" before (open_fds ())

(* ---- backpressure --------------------------------------------------------- *)

(* One edge's frame dwarfs its 16-byte ring: the bytes must park and trickle
   while every other connection completes, and the exchange still delivers
   everything intact. *)
let test_exchange_slow_edge () =
  let n = 3 in
  let net = Net_poll.create ~outbuf:16 ~n () in
  Fun.protect
    ~finally:(fun () -> Net_poll.close net)
    (fun () ->
      let big = String.init 100_000 (fun i -> Char.chr (i land 0xff)) in
      let frame entries = Wire.Frame.encode { Wire.Frame.round = 0; entries } in
      let frames =
        Array.init n (fun s ->
            Array.init n (fun d ->
                if s = d then ""
                else if s = 0 && d = 1 then frame [ (7, big) ]
                else frame [ (7, Printf.sprintf "m%d%d" s d) ]))
      in
      let delivered = Net_poll.exchange net ~round:0 frames in
      Alcotest.(check string) "slow edge payload intact" big
        (List.assoc 7 delivered.(0).(1));
      for s = 0 to n - 1 do
        for d = 0 to n - 1 do
          if s <> d && not (s = 0 && d = 1) then
            Alcotest.(check string)
              (Printf.sprintf "edge %d->%d delivered" s d)
              (Printf.sprintf "m%d%d" s d)
              (List.assoc 7 delivered.(s).(d))
        done
      done;
      let st = Net_poll.stats net in
      Alcotest.(check bool) "frames parked under backpressure" true
        (st.Net_poll.p_parked > 0);
      Alcotest.(check bool) "backlog peaked near the big frame" true
        (st.Net_poll.p_max_backlog > 50_000);
      Alcotest.(check int) "one exchange" 1 st.Net_poll.p_rounds;
      Alcotest.(check int) "all frames counted" (n * (n - 1))
        st.Net_poll.p_frames)

(* Engine-level: starved rings force parking on every coalesced frame while
   the engine still completes all sessions with the simulator's exact
   ledger. *)
let test_engine_progresses_under_backpressure () =
  let n = 7 and t = 2 and sessions = 16 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  (* Fresh specs per run: a seeded adversary is single-use (its PRNG state
     advances as it acts), so sharing one list would face the second run
     with different byzantine messages than the first. *)
  let specs () = mk_specs ~n ~sessions ~spacing:1 ~seed:1312 in
  let reference = Engine.run_sim ~n ~t ~corrupt (specs ()) in
  let net = Net_poll.create ~outbuf:64 ~n () in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Net_poll.close net)
      (fun () ->
        Engine.run_core ~transport:(Net_poll.transport net) ~n ~t ~corrupt
          (specs ()))
  in
  Alcotest.(check bool) "outcome identical to sim" true
    (fingerprint outcome = fingerprint reference);
  let st = Net_poll.stats net in
  Alcotest.(check int) "transport saw every engine round"
    outcome.Engine.aggregate.Engine.engine_rounds st.Net_poll.p_rounds;
  Alcotest.(check int) "transport moved every ledger frame"
    outcome.Engine.aggregate.Engine.frames_sent st.Net_poll.p_frames;
  Alcotest.(check int) "transport frame bytes match the ledger"
    outcome.Engine.aggregate.Engine.frame_bytes st.Net_poll.p_frame_bytes;
  Alcotest.(check bool) "starved rings parked frames" true
    (st.Net_poll.p_parked > 0);
  Alcotest.(check bool) "wire bytes = frame bytes + prefixes" true
    (st.Net_poll.p_wire_bytes
    = st.Net_poll.p_frame_bytes + (4 * st.Net_poll.p_frames));
  (* The engine-facing path never materializes a frame string: every frame
     the transport moved was encoded in place. *)
  Alcotest.(check int) "every frame encoded in place" st.Net_poll.p_frames
    st.Net_poll.p_frames_encoded_in_place;
  Alcotest.(check bool) "allocation meter ran" true
    (st.Net_poll.p_minor_words_per_round > 0.0);
  (* Per-connection peak backlogs: n*n matrix, zero diagonal, and under
     starved rings every off-diagonal edge queued bytes at some point. The
     scalar p_max_backlog is exactly the matrix maximum. *)
  let m = st.Net_poll.p_conn_peak_backlog in
  Alcotest.(check int) "backlog matrix rows" n (Array.length m);
  Array.iteri
    (fun s row ->
      Alcotest.(check int) "backlog matrix cols" n (Array.length row);
      Array.iteri
        (fun d peak ->
          if s = d then
            Alcotest.(check int)
              (Printf.sprintf "diagonal %d zero" s)
              0 peak
          else
            Alcotest.(check bool)
              (Printf.sprintf "edge %d->%d queued under starved rings" s d)
              true (peak > 0))
        row)
    m;
  let matrix_max =
    Array.fold_left
      (fun acc row -> Array.fold_left max acc row)
      0 m
  in
  Alcotest.(check int) "p_max_backlog = matrix maximum" matrix_max
    st.Net_poll.p_max_backlog;
  (* Select-wait accounting: both wall-clock figures are nonnegative and the
     mean cannot exceed the longest single wait. *)
  Alcotest.(check bool) "select waits nonnegative" true
    (st.Net_poll.p_select_wait_max_s >= 0.0
    && st.Net_poll.p_select_wait_mean_s >= 0.0);
  Alcotest.(check bool) "mean select wait <= max select wait" true
    (st.Net_poll.p_select_wait_mean_s <= st.Net_poll.p_select_wait_max_s)

(* ---- transport violations and lifecycle ----------------------------------- *)

let test_wrong_round_rejected () =
  let net = Net_poll.create ~n:2 () in
  Fun.protect
    ~finally:(fun () -> Net_poll.close net)
    (fun () ->
      let frames =
        Array.init 2 (fun s ->
            Array.init 2 (fun d ->
                if s = d then ""
                else Wire.Frame.encode { Wire.Frame.round = 9; entries = [] }))
      in
      Alcotest.check_raises "round mismatch"
        (Failure "Net_poll: expected round 3, got 9") (fun () ->
          ignore (Net_poll.exchange net ~round:3 frames)))

let test_lifecycle () =
  Alcotest.check_raises "n < 1" (Invalid_argument "Net_poll.create: n < 1")
    (fun () -> ignore (Net_poll.create ~n:0 ()));
  let net = Net_poll.create ~n:2 () in
  Net_poll.close net;
  Net_poll.close net;
  Alcotest.check_raises "exchange after close"
    (Invalid_argument "Net_poll.exchange: closed") (fun () ->
      ignore (Net_poll.exchange net ~round:0 (Array.make_matrix 2 2 "")));
  let net = Net_poll.create ~n:3 () in
  Fun.protect
    ~finally:(fun () -> Net_poll.close net)
    (fun () ->
      Alcotest.check_raises "mis-shaped matrix"
        (Invalid_argument "Net_poll.exchange: frame matrix shape") (fun () ->
          ignore (Net_poll.exchange net ~round:0 (Array.make_matrix 2 2 ""))))

let test_rss_probes () =
  (match Net_poll.rss_bytes () with
  | Some b -> Alcotest.(check bool) "rss positive" true (b > 0)
  | None -> Alcotest.fail "rss_bytes unavailable on Linux");
  match Net_poll.rss_peak_bytes () with
  | Some b -> Alcotest.(check bool) "peak rss positive" true (b > 0)
  | None -> Alcotest.fail "rss_peak_bytes unavailable on Linux"

let test_parse_vm_line () =
  let check name expect line =
    Alcotest.(check (option int))
      name expect
      (Net_poll.parse_vm_line ~key:"VmHWM:" line)
  in
  check "tab-separated" (Some (5124 * 1024)) "VmHWM:\t    5124 kB";
  check "space-separated" (Some (42 * 1024)) "VmHWM:   42 kB";
  check "zero" (Some 0) "VmHWM:\t       0 kB";
  check "other key" None "VmRSS:\t    5124 kB";
  check "prefix only, no digits" None "VmHWM:\t kB";
  check "bare key" None "VmHWM:";
  check "empty line" None "";
  Alcotest.(check (option int))
    "different key matches" (Some (9 * 1024))
    (Net_poll.parse_vm_line ~key:"VmRSS:" "VmRSS:\t9 kB");
  (* Absent VmHWM must not zero the soak's peak tracking: once a peak has
     been observed, the probe keeps reporting the last-known value. *)
  match Net_poll.rss_peak_bytes () with
  | None -> Alcotest.fail "rss_peak_bytes unavailable on Linux"
  | Some _ -> (
      (* A second read still succeeds (and refreshes the cache). *)
      match Net_poll.rss_peak_bytes () with
      | Some b -> Alcotest.(check bool) "cached peak positive" true (b > 0)
      | None -> Alcotest.fail "peak cache lost")

let suite =
  [
    Alcotest.test_case "poll = sim: K=8 equivocate, staggered, tiny rings"
      `Quick test_poll_equals_sim_k8;
    Alcotest.test_case "poll = sim: K=64 equivocate" `Quick
      test_poll_equals_sim_k64;
    Alcotest.test_case "poll = sim: single sessions (Pi_Z, long Pi_N, both)"
      `Slow test_poll_equals_sim_single_sessions;
    Alcotest.test_case "exception tears down the mesh" `Quick
      test_exception_tears_down_mesh;
    Alcotest.test_case "slow edge parks, everything still delivered" `Quick
      test_exchange_slow_edge;
    Alcotest.test_case "engine progresses under starved rings" `Quick
      test_engine_progresses_under_backpressure;
    Alcotest.test_case "wrong-round frame rejected" `Quick
      test_wrong_round_rejected;
    Alcotest.test_case "create/close/exchange lifecycle" `Quick test_lifecycle;
    Alcotest.test_case "/proc memory probes" `Quick test_rss_probes;
    Alcotest.test_case "parse_vm_line" `Quick test_parse_vm_line;
  ]
