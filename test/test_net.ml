(* Simulator semantics: lock-step delivery, authentication, metrics,
   adversary overrides, label attribution, round limits. *)

open Net

let ( let* ) = Proto.( let* )

(* Each party broadcasts its id, then returns the set of senders heard. *)
let roll_call (_ctx : Ctx.t) =
  let* inbox = Proto.broadcast "here" in
  let heard = ref [] in
  Array.iteri (fun s m -> if m <> None then heard := s :: !heard) inbox;
  Proto.return (List.rev !heard)

let test_all_honest_delivery () =
  let n = 5 in
  let outcome =
    Sim.run ~n ~t:1
      ~corrupt:(Array.make n false)
      ~adversary:Adversary.passive roll_call
  in
  Alcotest.check Alcotest.int "one round" 1 outcome.Sim.metrics.Metrics.rounds;
  Array.iter
    (function
      | Some heard -> Alcotest.check (Alcotest.list Alcotest.int) "hears all" [ 0; 1; 2; 3; 4 ] heard
      | None -> Alcotest.fail "party did not finish")
    outcome.Sim.outputs;
  (* 5 parties x 4 non-self recipients x 4-byte message. *)
  Alcotest.check Alcotest.int "bits" (5 * 4 * 8 * 4) outcome.Sim.metrics.Metrics.honest_bits;
  Alcotest.check Alcotest.int "msgs" 20 outcome.Sim.metrics.Metrics.honest_msgs

let test_silent_adversary () =
  let n = 4 in
  let corrupt = Sim.corrupt_first ~n 1 in
  let outcome = Sim.run ~n ~t:1 ~corrupt ~adversary:Adversary.silent roll_call in
  List.iter
    (fun heard ->
      Alcotest.check (Alcotest.list Alcotest.int) "corrupt silent" [ 1; 2; 3 ] heard)
    (Sim.honest_outputs ~corrupt outcome);
  Alcotest.check Alcotest.int "no byz traffic" 0 outcome.Sim.metrics.Metrics.byz_bits

let test_byzantine_bits_not_counted () =
  let n = 4 in
  let corrupt = Sim.corrupt_first ~n 1 in
  let outcome =
    Sim.run ~n ~t:1 ~corrupt ~adversary:(Adversary.spammer ~seed:7 ~max_len:32) roll_call
  in
  (* Honest bits: 3 honest x 3 non-self x 4 bytes. *)
  Alcotest.check Alcotest.int "honest bits" (3 * 3 * 8 * 4)
    outcome.Sim.metrics.Metrics.honest_bits;
  Alcotest.check Alcotest.bool "byz bits counted separately" true
    (outcome.Sim.metrics.Metrics.byz_bits > 0)

(* Two sequenced rounds; party 0 sends a different value per recipient. *)
let two_rounds (ctx : Ctx.t) =
  let* first =
    Proto.exchange (fun r ->
        if ctx.Ctx.me = 0 then Some (Printf.sprintf "to-%d" r) else None)
  in
  let mine = first.(0) in
  let* _ = Proto.receive_only () in
  Proto.return mine

let test_per_recipient_messages () =
  let n = 3 in
  let outcome =
    Sim.run ~n ~t:0 ~corrupt:(Array.make n false) ~adversary:Adversary.passive
      two_rounds
  in
  Alcotest.check Alcotest.int "two rounds" 2 outcome.Sim.metrics.Metrics.rounds;
  Array.iteri
    (fun i o ->
      Alcotest.check
        (Alcotest.option (Alcotest.option Alcotest.string))
        (Printf.sprintf "party %d" i)
        (Some (Some (Printf.sprintf "to-%d" i)))
        o)
    outcome.Sim.outputs

let test_labels () =
  let labelled (_ctx : Ctx.t) =
    let* _ = Proto.with_label "phase-a" (Proto.broadcast "aaaa") in
    let* _ = Proto.with_label "phase-b" (Proto.broadcast "bb") in
    let* _ = Proto.broadcast "c" in
    Proto.return ()
  in
  let n = 3 in
  let outcome =
    Sim.run ~n ~t:0 ~corrupt:(Array.make n false) ~adversary:Adversary.passive
      labelled
  in
  let find l = List.assoc_opt l (Metrics.labels outcome.Sim.metrics) in
  Alcotest.check (Alcotest.option Alcotest.int) "phase-a" (Some (3 * 2 * 8 * 4)) (find "phase-a");
  Alcotest.check (Alcotest.option Alcotest.int) "phase-b" (Some (3 * 2 * 8 * 2)) (find "phase-b");
  Alcotest.check (Alcotest.option Alcotest.int) "unlabeled" (Some (3 * 2 * 8 * 1))
    (find Metrics.no_label)

let test_nested_labels () =
  let nested (_ctx : Ctx.t) =
    Proto.with_label "outer"
      (let* _ = Proto.broadcast "x" in
       let* _ = Proto.with_label "inner" (Proto.broadcast "y") in
       let* _ = Proto.broadcast "z" in
       Proto.return ())
  in
  let outcome =
    Sim.run ~n:2 ~t:0 ~corrupt:[| false; false |] ~adversary:Adversary.passive
      nested
  in
  let find l = List.assoc_opt l (Metrics.labels outcome.Sim.metrics) in
  (* outer gets rounds 1 and 3 (2 parties x 1 recipient x 1 byte each). *)
  Alcotest.check (Alcotest.option Alcotest.int) "outer" (Some 32) (find "outer");
  Alcotest.check (Alcotest.option Alcotest.int) "inner" (Some 16) (find "inner")

let test_round_limit () =
  let rec forever (ctx : Ctx.t) =
    let* _ = Proto.broadcast "spin" in
    forever ctx
  in
  Alcotest.check_raises "limit" (Sim.Round_limit_exceeded 10) (fun () ->
      ignore
        (Sim.run ~max_rounds:10 ~n:2 ~t:0 ~corrupt:[| false; false |]
           ~adversary:Adversary.passive forever))

let test_early_termination_mix () =
  (* Party 0 finishes after one round; party 1 after two. The simulator must
     keep running until all honest parties are done, with party 0 silent. *)
  let staggered (ctx : Ctx.t) =
    let* first = Proto.broadcast "hello" in
    if ctx.Ctx.me = 0 then Proto.return (Array.length first)
    else
      let* second = Proto.receive_only () in
      (* Party 0 already terminated: its slot must be empty. *)
      Proto.return (match second.(0) with None -> 0 | Some _ -> 99)
  in
  let outcome =
    Sim.run ~n:2 ~t:0 ~corrupt:[| false; false |] ~adversary:Adversary.passive
      staggered
  in
  Alcotest.check Alcotest.int "rounds" 2 outcome.Sim.metrics.Metrics.rounds;
  Alcotest.check (Alcotest.option Alcotest.int) "late party saw silence" (Some 0)
    outcome.Sim.outputs.(1)

let test_corruption_bound_enforced () =
  Alcotest.check_raises "too many corrupt" (Invalid_argument "Sim.run: more corruptions than t")
    (fun () ->
      ignore
        (Sim.run ~n:4 ~t:1 ~corrupt:[| true; true; false; false |]
           ~adversary:Adversary.silent roll_call));
  Alcotest.check_raises "ctx validates resilience"
    (Invalid_argument "Ctx.make: requires t < n/3") (fun () ->
      ignore (Ctx.make ~n:3 ~t:1 ~me:0))

let test_metrics_labels_deterministic () =
  (* Ties in the per-label bit counts break by label, ascending — the order
     never depends on hash-table iteration. *)
  let m = Metrics.create () in
  Metrics.record_honest m ~label:(Some "zeta") ~bytes:4;
  Metrics.record_honest m ~label:(Some "alpha") ~bytes:4;
  Metrics.record_honest m ~label:(Some "mid") ~bytes:4;
  Metrics.record_honest m ~label:(Some "big") ~bytes:9;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "bits desc, then label asc"
    [ ("big", 72); ("alpha", 32); ("mid", 32); ("zeta", 32) ]
    (Metrics.labels m)

let test_metrics_merge () =
  let mk rounds kvs =
    let m = Metrics.create () in
    m.Metrics.rounds <- rounds;
    List.iter (fun (l, bytes) -> Metrics.record_honest m ~label:(Some l) ~bytes) kvs;
    m
  in
  let agg = Metrics.create () in
  Metrics.merge ~into:agg (mk 7 [ ("a", 2); ("b", 3) ]);
  Metrics.merge ~into:agg (mk 12 [ ("a", 5) ]);
  Metrics.merge ~into:agg (mk 4 [ ("c", 1) ]);
  (* Label bits accumulate across merges; rounds take the max, and stay the
     max no matter how many smaller sessions merge in afterwards. *)
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "labels accumulated"
    [ ("a", 56); ("b", 24); ("c", 8) ]
    (Metrics.labels agg);
  Alcotest.check Alcotest.int "rounds = max" 12 agg.Metrics.rounds;
  Metrics.merge ~into:agg (mk 2 []);
  Metrics.merge ~into:agg (mk 12 []);
  Alcotest.check Alcotest.int "rounds still max after repeats" 12 agg.Metrics.rounds;
  Alcotest.check Alcotest.int "honest bits summed" (8 * (2 + 3 + 5 + 1))
    agg.Metrics.honest_bits

let test_metrics_snapshot_diff () =
  let m = Metrics.create () in
  m.Metrics.rounds <- 3;
  Metrics.record_honest m ~label:(Some "setup") ~bytes:10;
  Metrics.record_byzantine m ~bytes:2;
  let before = Metrics.snapshot m in
  (* The snapshot is independent: the original keeps accumulating. *)
  m.Metrics.rounds <- 8;
  Metrics.record_honest m ~label:(Some "setup") ~bytes:1;
  Metrics.record_honest m ~label:(Some "search") ~bytes:5;
  Metrics.record_byzantine m ~bytes:4;
  Alcotest.check Alcotest.int "snapshot unchanged" (8 * 10)
    before.Metrics.honest_bits;
  Alcotest.check Alcotest.int "snapshot rounds unchanged" 3 before.Metrics.rounds;
  let d = Metrics.diff ~after:m ~before in
  Alcotest.check Alcotest.int "bits delta" (8 * 6) d.Metrics.honest_bits;
  Alcotest.check Alcotest.int "msgs delta" 2 d.Metrics.honest_msgs;
  Alcotest.check Alcotest.int "byz delta" (8 * 4) d.Metrics.byz_bits;
  Alcotest.check Alcotest.int "rounds delta" 5 d.Metrics.rounds;
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "per-label deltas, zero-delta labels dropped"
    [ ("search", 40); ("setup", 8) ]
    (Metrics.labels d)

let test_prng_determinism () =
  let a = Prng.create 42 and b = Prng.create 42 in
  let xs g = List.init 20 (fun _ -> Prng.int g 1000) in
  Alcotest.check (Alcotest.list Alcotest.int) "same seed same stream" (xs a) (xs b);
  let c = Prng.create 43 in
  Alcotest.check Alcotest.bool "different seed differs" true (xs (Prng.create 42) <> xs c);
  Alcotest.check Alcotest.int "bytes length" 17 (String.length (Prng.bytes a 17))

(* The runtimes charge a sender's honest messages of one round with one
   [record_honest_row]; that must equal one [record_honest] per message —
   bits, message count and the label table (hence [labels] order), on rows
   with empty messages, empty rows and unlabelled senders. *)
let prop_metrics_row_equals_per_message =
  let label_gen = QCheck.Gen.(opt (oneofl [ "a"; "b"; "pi_ba"; "high_cost_ca" ])) in
  let row_gen = QCheck.Gen.(pair label_gen (list_size (int_bound 6) (int_bound 40))) in
  QCheck.Test.make ~name:"metrics: row accounting = per-message accounting" ~count:300
    (QCheck.make QCheck.Gen.(list_size (int_bound 30) row_gen))
    (fun rows ->
      let per_msg = Metrics.create () and per_row = Metrics.create () in
      List.iter
        (fun (label, sizes) ->
          List.iter (fun bytes -> Metrics.record_honest per_msg ~label ~bytes) sizes;
          Metrics.record_honest_row per_row ~label ~msgs:(List.length sizes)
            ~bytes:(List.fold_left ( + ) 0 sizes))
        rows;
      per_msg.Metrics.honest_bits = per_row.Metrics.honest_bits
      && per_msg.Metrics.honest_msgs = per_row.Metrics.honest_msgs
      && Metrics.labels per_msg = Metrics.labels per_row
      && Metrics.is_empty per_msg = Metrics.is_empty per_row)

let suite =
  [
    Alcotest.test_case "all-honest delivery" `Quick test_all_honest_delivery;
    Alcotest.test_case "silent adversary" `Quick test_silent_adversary;
    Alcotest.test_case "byzantine bits separate" `Quick test_byzantine_bits_not_counted;
    Alcotest.test_case "per-recipient messages" `Quick test_per_recipient_messages;
    Alcotest.test_case "labels" `Quick test_labels;
    Alcotest.test_case "nested labels" `Quick test_nested_labels;
    Alcotest.test_case "round limit" `Quick test_round_limit;
    Alcotest.test_case "staggered termination" `Quick test_early_termination_mix;
    Alcotest.test_case "corruption bound" `Quick test_corruption_bound_enforced;
    Alcotest.test_case "metrics labels deterministic" `Quick
      test_metrics_labels_deterministic;
    Alcotest.test_case "metrics merge" `Quick test_metrics_merge;
    Alcotest.test_case "metrics snapshot/diff" `Quick test_metrics_snapshot_diff;
    QCheck_alcotest.to_alcotest prop_metrics_row_equals_per_message;
    Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
  ]
