(* The front door ([Convex.agree_int] = [Front_door.run]): Definition 1
   around the regime threshold ℓ* under every generic adversary and every
   protocol-aware attack; identity with Π_ℤ ([Ca_int.run]) whenever every
   honest input is longer than ℓ* and whenever n² > ℓ*; and the engine's
   sim ≡ poll contract with both regimes in flight. *)

open Net

let l_star = Convex.Front_door.short_bits

let run ~n ~t ~corrupt ~adversary protocol inputs =
  Sim.run ~n ~t ~corrupt ~adversary (fun ctx -> protocol ctx inputs.(ctx.Ctx.me))

(* Termination (every honest party has an output), agreement, validity. *)
let check_definition_1 name ~corrupt ~inputs outcome =
  Test_convex.check_ca_int name ~corrupt ~inputs (Sim.honest_outputs ~corrupt outcome)

(* A magnitude of exactly [bits] bits, varied by [i]. *)
let of_width bits i = Bigint.add (Bigint.pow2 (bits - 1)) (Bigint.of_int (1000 * i))

let test_definition_1_around_threshold () =
  let n = 4 and t = 1 in
  let corrupt = [| false; true; false; false |] in
  let byz_high = Bigint.succ (Bigint.pow2 (l_star + 1)) in
  let configs =
    [
      ("L-1 bits", Array.init n (of_width (l_star - 1)));
      ("L bits", Array.init n (of_width l_star));
      ("L+1 bits", Array.init n (of_width (l_star + 1)));
      (* Honest widths on both sides of ℓ*: either regime may win the BA,
         and "short" caps the long honest values. *)
      ( "mixed short/long",
        [| Bigint.of_int 5; byz_high; Bigint.pow2 700; of_width (l_star + 1) 3 |] );
      ( "mixed around L",
        [| of_width (l_star - 1) 1; Bigint.zero; of_width l_star 2; of_width (l_star + 1) 3 |] );
      ( "negative",
        [|
          Bigint.neg (Bigint.pow2 100);
          Bigint.pow2 900;
          Bigint.of_int (-3);
          Bigint.neg (of_width (l_star + 1) 1);
        |] );
      ("mixed sign", [| Bigint.of_int (-7); Bigint.neg byz_high; Bigint.zero; Bigint.of_int 12 |]);
      ("zero", Array.make n Bigint.zero);
    ]
  in
  List.iter
    (fun (cname, inputs) ->
      (* Built per configuration: seeded adversaries are single-use. *)
      let adversaries =
        Adversary.all_generic ~seed:71
        @ Attacks.all ~seed:72 ~payload:(Bigint.to_bitstring byz_high |> Bitstring.to_bytes)
      in
      List.iter
        (fun adversary ->
          let outcome = run ~n ~t ~corrupt ~adversary Convex.agree_int inputs in
          check_definition_1
            (Printf.sprintf "%s vs %s" cname adversary.Adversary.name)
            ~corrupt ~inputs outcome)
        adversaries)
    configs

(* n = 7 under the standard equivocating, high-outlier workload: the short
   regime at the benchmark's shape, plus mixed widths. *)
let test_definition_1_n7 () =
  let n = 7 and t = 2 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  List.iter
    (fun (name, bits, seed) ->
      let rng = Prng.create seed in
      let inputs =
        Workload.apply_input_attack Workload.Outlier_high ~corrupt
          (Workload.clustered_bits rng ~n ~bits ~shared_prefix_bits:(bits / 2))
      in
      let outcome =
        run ~n ~t ~corrupt ~adversary:(Adversary.equivocate ~seed) Convex.agree_int inputs
      in
      check_definition_1 name ~corrupt ~inputs outcome)
    [ ("n=7 l=64", 64, 3); ("n=7 l=512", 512, 4); ("n=7 l=513", 513, 5) ];
  (* Mixed signs at n = 7: three positive honest inputs against two large
     negative ones, so two honest parties lose the sign BA and join the
     magnitude agreement with 0. *)
  let honest = ref [ 3; 4; 5; -1000; -1001 ] in
  let inputs =
    Array.map
      (fun c ->
        if c then Bigint.pow2 400
        else
          match !honest with
          | v :: rest ->
              honest := rest;
              Bigint.of_int v
          | [] -> assert false)
      corrupt
  in
  List.iter
    (fun adversary ->
      let outcome = run ~n ~t ~corrupt ~adversary Convex.agree_int inputs in
      check_definition_1 ("outvoted sign vs " ^ adversary.Adversary.name) ~corrupt ~inputs
        outcome)
    (Adversary.all_generic ~seed:73)

(* Same inputs, same adversary construction: outputs, honest and byzantine
   bits, rounds and per-label bits. *)
let check_identical name ~n ~t ~corrupt ~mk_adversary inputs =
  let a = run ~n ~t ~corrupt ~adversary:(mk_adversary ()) Convex.agree_int inputs in
  let b = run ~n ~t ~corrupt ~adversary:(mk_adversary ()) Convex.Ca_int.run inputs in
  let outs o = List.map Bigint.to_hex (Sim.honest_outputs ~corrupt o) in
  Alcotest.check (Alcotest.list Alcotest.string) (name ^ ": outputs") (outs b) (outs a);
  let m o = o.Sim.metrics in
  Alcotest.check Alcotest.int (name ^ ": honest bits")
    (m b).Metrics.honest_bits (m a).Metrics.honest_bits;
  Alcotest.check Alcotest.int (name ^ ": byzantine bits")
    (m b).Metrics.byz_bits (m a).Metrics.byz_bits;
  Alcotest.check Alcotest.int (name ^ ": rounds") (m b).Metrics.rounds (m a).Metrics.rounds;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    (name ^ ": labels") (Metrics.labels (m b)) (Metrics.labels (m a))

let test_long_path_is_pi_z () =
  List.iter
    (fun (n, t, bits) ->
      let corrupt = Workload.spread_corrupt ~n ~t in
      let rng = Prng.create (n + bits) in
      let inputs =
        Workload.clustered_bits rng ~n ~bits ~shared_prefix_bits:(bits / 2)
        |> Array.map (fun v -> Bigint.add v (Bigint.pow2 (bits - 1)))
      in
      let negative = Array.map Bigint.neg inputs in
      List.iter
        (fun (aname, mk_adversary) ->
          let name = Printf.sprintf "n=%d l=%d %s" n bits aname in
          check_identical name ~n ~t ~corrupt ~mk_adversary inputs;
          check_identical (name ^ " negative") ~n ~t ~corrupt ~mk_adversary negative)
        [
          ("passive", fun () -> Adversary.passive);
          ("equivocate", fun () -> Adversary.equivocate ~seed:9);
        ])
    [ (4, 1, l_star + 1); (7, 2, 2048) ]

let test_large_n_is_pi_z () =
  Alcotest.check Alcotest.bool "n = 22 applies" true
    (Convex.Front_door.applies (Ctx.make ~n:22 ~t:7 ~me:0));
  Alcotest.check Alcotest.bool "n = 23 is Pi_Z" false
    (Convex.Front_door.applies (Ctx.make ~n:23 ~t:7 ~me:0));
  let n = 23 and t = 7 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let inputs = Workload.sensor_readings (Prng.create 5) ~n ~base:(-1004) ~jitter:2 in
  check_identical "n=23 sensors" ~n ~t ~corrupt
    ~mk_adversary:(fun () -> Adversary.equivocate ~seed:4)
    inputs

(* Eight sessions in one engine, short and long regimes interleaved, under
   equivocation: the poll backend must reproduce the simulator exactly. *)
let test_sim_equals_poll_k8 () =
  let n = 4 and t = 1 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let specs () =
    List.init 8 (fun k ->
        let bits = if k mod 2 = 0 then 64 else l_star + 9 in
        let inputs =
          Workload.clustered_bits (Prng.create (40 + k)) ~n ~bits ~shared_prefix_bits:(bits / 2)
        in
        let inputs = if k mod 4 = 3 then Array.map Bigint.neg inputs else inputs in
        Engine.session ~sid:k ~start_round:(2 * k)
          ~adversary:(Adversary.equivocate ~seed:(80 + k))
          (fun ctx -> Convex.agree_int ctx inputs.(ctx.Ctx.me)))
  in
  let fingerprint (o : Bigint.t Engine.outcome) =
    ( List.map
        (fun r ->
          ( r.Engine.r_sid,
            Array.map (Option.map Bigint.to_hex) r.Engine.r_outputs,
            r.Engine.r_metrics.Metrics.rounds,
            r.Engine.r_metrics.Metrics.honest_bits,
            r.Engine.r_metrics.Metrics.byz_bits,
            Metrics.labels r.Engine.r_metrics ))
        o.Engine.sessions,
      o.Engine.aggregate )
  in
  let sim = Engine.run_sim ~n ~t ~corrupt (specs ()) in
  let poll = Engine.run_poll ~n ~t ~corrupt (specs ()) in
  Alcotest.check Alcotest.int "all sessions completed" 8
    sim.Engine.aggregate.Engine.sessions_completed;
  Alcotest.check Alcotest.bool "poll = sim" true (fingerprint poll = fingerprint sim)

let suite =
  [
    Alcotest.test_case "Definition 1 around l* (all adversaries)" `Quick
      test_definition_1_around_threshold;
    Alcotest.test_case "Definition 1 at n = 7" `Quick test_definition_1_n7;
    Alcotest.test_case "long path = Pi_Z" `Quick test_long_path_is_pi_z;
    Alcotest.test_case "n > 22 = Pi_Z" `Quick test_large_n_is_pi_z;
    Alcotest.test_case "sim = poll at K = 8" `Quick test_sim_equals_poll_k8;
  ]
