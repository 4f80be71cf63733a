(* Benchmark harness: regenerates every experiment table and figure defined
   in DESIGN.md / EXPERIMENTS.md.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- t1 f1        -- run a subset
     dune exec bench/main.exe -- --domains 4  -- fan cells over 4 domains

   The paper (a brief announcement) has no empirical section; the experiments
   measure exactly what its theorems claim: communication complexity (honest
   bits), round complexity, resilience, and the properties of the new
   primitives. Absolute numbers are simulator-specific; the shapes — who
   wins, by what factor, where the crossover sits — are the reproduction
   target (see EXPERIMENTS.md). *)

open Net

let line = String.make 104 '-'

(* --smoke: every experiment at tiny parameters, a few seconds end to end.
   Wired into `make check` so the bench harness cannot rot; smoke runs skip
   the JSON ledgers so committed BENCH_*.json files are never clobbered. *)
let smoke = ref false

(* --domains N: fan independent experiment cells (t1, t4, parallel) out over
   the shared domain pool. Defaults to the hardware parallelism bound; the
   per-cell results are bit-identical for any value (Workload.run_cells). *)
let domains = ref 1

let write_json ~path ~meta ~rows =
  if !smoke then Printf.printf "\n[smoke: not writing %s]\n" path
  else Bench_json.write ~path ~meta ~rows

let header title claim =
  Printf.printf "\n%s\n%s\n%s\n" line title line;
  Printf.printf "%s\n\n" claim

let kbits b = Printf.sprintf "%.1f" (float_of_int b /. 1000.)

(* Standard workload: clustered ℓ-bit naturals (half the bits shared), t
   byzantine parties holding outlier inputs and equivocating on the wire. *)
let standard_inputs ~seed ~n ~bits =
  let rng = Prng.create seed in
  Workload.clustered_bits rng ~n ~bits ~shared_prefix_bits:(bits / 2)

let run_protocol ?(adversary_seed = 5) ~seed ~n ~t ~bits (p : Workload.protocol) =
  let corrupt = Workload.spread_corrupt ~n ~t in
  let inputs = standard_inputs ~seed ~n ~bits in
  let inputs = Workload.apply_input_attack Workload.Outlier_high ~corrupt inputs in
  let adversary = Adversary.equivocate ~seed:adversary_seed in
  Workload.run_int ~n ~t ~corrupt ~adversary ~inputs p.Workload.run

let comparators ~bits =
  [
    Workload.pi_z;
    Workload.turpin_coan_ba ~bits;
    Workload.high_cost_ca ~bits;
    Workload.broadcast_ca ~bits;
  ]

(* ------------------------------------------------------------------ *)
(* T1: honest bits vs input length ℓ (n fixed)                         *)
(* ------------------------------------------------------------------ *)

let t1 () =
  let n = 13 and t = 4 in
  header "T1  --  communication vs input length  (n = 13, t = 4)"
    "Claim (Thm 5 / Cor 2): BITS(Pi_Z) = O(l*n + k*n^2*log^2 n); prior approaches are\n\
     Omega(l*n^2) (Turpin-Coan BA — which is not even CA) or O(l*n^3) (HighCostCA,\n\
     Broadcast-CA). Expect Pi_Z's kbits column to grow ~linearly in l and win for large l.";
  Printf.printf "%-8s | %18s | %18s | %18s | %18s\n" "l (bits)"
    "Pi_Z kbits" "TC-BA kbits" "HighCostCA kbits" "Broadcast-CA kbits";
  print_endline line;
  let lgs = if !smoke then [ 9; 11 ] else [ 9; 10; 11; 12; 13; 14; 15; 16; 17 ] in
  (* Each (l, protocol) grid point is an independent cell — the whole grid
     fans out over the domain pool. run_protocol constructs its adversary and
     PRNGs inside the thunk, so cells are self-contained. *)
  let grid =
    List.concat_map
      (fun lg ->
        let bits = 1 lsl lg in
        let point name p =
          Workload.cell ~label:(Printf.sprintf "2^%d/%s" lg name) (fun () ->
              let r = run_protocol ~seed:(100 + lg) ~n ~t ~bits p in
              assert (r.Workload.agreement);
              r.Workload.honest_bits)
        in
        (* The cubic baselines get prohibitively slow past 2^15; their trend
           is already unambiguous (skipped cells marked "-"). *)
        [ point "pi_z" Workload.pi_z; point "tc" (Workload.turpin_coan_ba ~bits) ]
        @ (if lg <= 15 then
             [
               point "hc" (Workload.high_cost_ca ~bits);
               point "bc" (Workload.broadcast_ca ~bits);
             ]
           else []))
      lgs
  in
  let results = Workload.run_cells ~domains:!domains grid in
  let json_rows = ref [] in
  List.iter
    (fun lg ->
      let get name = List.assoc (Printf.sprintf "2^%d/%s" lg name) results in
      let get_opt name =
        List.assoc_opt (Printf.sprintf "2^%d/%s" lg name) results
      in
      let ours = get "pi_z" and tc = get "tc" in
      let hc = get_opt "hc" and bc = get_opt "bc" in
      let cell = function Some b -> kbits b | None -> "-" in
      Printf.printf "2^%-6d | %18s | %18s | %18s | %18s\n" lg (kbits ours)
        (kbits tc) (cell hc) (cell bc);
      let opt = function Some b -> Bench_json.Int b | None -> Bench_json.Null in
      json_rows :=
        [
          ("log2_bits", Bench_json.Int lg);
          ("pi_z_bits", Bench_json.Int ours);
          ("tc_ba_bits", Bench_json.Int tc);
          ("high_cost_ca_bits", opt hc);
          ("broadcast_ca_bits", opt bc);
        ]
        :: !json_rows)
    lgs;
  write_json ~path:"BENCH_t1.json"
    ~meta:
      [
        ("experiment", Bench_json.Str "t1");
        ("n", Bench_json.Int n);
        ("t", Bench_json.Int t);
      ]
    ~rows:(List.rev !json_rows);
  Printf.printf
    "\n(per-l normalized: divide a column by l*n to see the leading coefficient flatten\n\
     for Pi_Z and grow for the baselines.)\n"

(* ------------------------------------------------------------------ *)
(* T2: honest bits vs n (ℓ fixed)                                      *)
(* ------------------------------------------------------------------ *)

let t2 () =
  let bits = 1 lsl 13 in
  header "T2  --  communication vs number of parties  (l = 2^13)"
    "Claim: for fixed large l, the l-dependent term of Pi_Z grows linearly in n while\n\
     the baselines grow at least quadratically (TC-BA) / cubically (the others).";
  Printf.printf "%-10s | %18s | %18s | %18s | %18s\n" "n (t)"
    "Pi_Z kbits" "TC-BA kbits" "HighCostCA kbits" "Broadcast-CA kbits";
  print_endline line;
  List.iter
    (fun n ->
      let t = (n - 1) / 3 in
      let row =
        List.map
          (fun p ->
            let r = run_protocol ~seed:(200 + n) ~n ~t ~bits p in
            assert (r.Workload.agreement);
            r.Workload.honest_bits)
          (comparators ~bits)
      in
      match row with
      | [ ours; tc; hc; bc ] ->
          Printf.printf "%-4d (%d)   | %18s | %18s | %18s | %18s\n" n t (kbits ours)
            (kbits tc) (kbits hc) (kbits bc)
      | _ -> assert false)
    (if !smoke then [ 4; 7 ] else [ 4; 7; 10; 13; 16; 19 ])

(* ------------------------------------------------------------------ *)
(* F1: crossover figure                                                *)
(* ------------------------------------------------------------------ *)

let f1 () =
  header "F1  --  crossover: baseline bits / Pi_Z bits as l grows"
    "Claim: Pi_Z's advantage appears once l = Omega(k * n * log^2 n) amortizes the\n\
     additive extension cost. Ratios > 1.0 mean Pi_Z wins. The crossover point\n\
     (first l with ratio >= 1) should move right as n grows.";
  List.iter
    (fun n ->
      let t = (n - 1) / 3 in
      Printf.printf "\n  n = %d (t = %d):\n" n t;
      Printf.printf "  %-8s | %14s | %20s | %14s\n" "l (bits)" "TC-BA / Pi_Z"
        "Broadcast-CA / Pi_Z" "Pi_Z kbits";
      Printf.printf "  %s\n" (String.make 66 '-');
      List.iter
        (fun lg ->
          let bits = 1 lsl lg in
          let measure p =
            (run_protocol ~seed:(300 + lg) ~n ~t ~bits p).Workload.honest_bits
          in
          let ours = measure Workload.pi_z in
          let tc = measure (Workload.turpin_coan_ba ~bits) in
          let r1 = float_of_int tc /. float_of_int ours in
          let bc_cell =
            if lg <= 15 then begin
              let bc = measure (Workload.broadcast_ca ~bits) in
              let r2 = float_of_int bc /. float_of_int ours in
              Printf.sprintf "%18.2fx%s" r2 (if r2 >= 1. then "*" else " ")
            end
            else Printf.sprintf "%19s" "-"
          in
          Printf.printf "  2^%-6d | %12.2fx%s | %s | %14s\n" lg r1
            (if r1 >= 1. then "*" else " ")
            bc_cell (kbits ours))
        (if !smoke then [ 7; 9 ] else [ 7; 9; 11; 13; 15; 17 ]))
    (if !smoke then [ 7 ] else [ 7; 13 ]);
  Printf.printf "\n  (* marks the regime where Pi_Z is cheaper.)\n"

(* ------------------------------------------------------------------ *)
(* T3: round complexity vs n                                           *)
(* ------------------------------------------------------------------ *)

let t3 () =
  let bits = 1 lsl 12 in
  header "T3  --  round complexity vs n  (l = 2^12)"
    "Claim: ROUNDS(Pi_Z) = O(n) + O(log n) * ROUNDS(Pi_BA) = O(n log n) with the\n\
     phase-king Pi_BA (3(t+1) rounds); HighCostCA is O(n); TC-BA is O(n).\n\
     Expect the Pi_Z / (n log2 n) column to stay roughly constant.";
  Printf.printf "%-10s | %12s | %12s | %12s | %14s\n" "n (t)" "Pi_Z" "HighCostCA"
    "TC-BA" "Pi_Z/(n lg n)";
  print_endline line;
  List.iter
    (fun n ->
      let t = (n - 1) / 3 in
      let rounds p =
        let corrupt = Workload.spread_corrupt ~n ~t in
        let inputs = standard_inputs ~seed:(400 + n) ~n ~bits in
        let r =
          Workload.run_int ~n ~t ~corrupt ~adversary:Adversary.passive ~inputs
            p.Workload.run
        in
        r.Workload.rounds
      in
      let ours = rounds Workload.pi_z in
      let hc = rounds (Workload.high_cost_ca ~bits) in
      let tc = rounds (Workload.turpin_coan_ba ~bits) in
      Printf.printf "%-4d (%d)   | %12d | %12d | %12d | %14.2f\n" n t ours hc tc
        (float_of_int ours /. (float_of_int n *. (log (float_of_int n) /. log 2.))))
    (if !smoke then [ 4; 7 ] else [ 4; 7; 10; 13; 16; 19 ])

(* ------------------------------------------------------------------ *)
(* T4: resilience matrix                                               *)
(* ------------------------------------------------------------------ *)

let t4 () =
  let n = 10 and t = 3 in
  header "T4  --  resilience  (n = 10, protocol t = 3; corruptions swept 0..4)"
    "Claim: Termination, Agreement and Convex Validity hold for any corruption count\n\
     <= t = floor((n-1)/3), for every adversary strategy and input attack. The 4-\n\
     corruption rows exceed the t < n/3 bound: failures there are expected (and the\n\
     Dolev-Reischuk-style impossibility says some strategy must break them).";
  (* Adversary *factories*: strategies carry PRNG state, so every grid cell
     instantiates a fresh adversary inside its thunk — cells are
     self-contained (a pure function of the grid point) and fan out over the
     domain pool. Earlier revisions shared instances across the sweep, which
     made rows depend on run order. *)
  let factories =
    [
      (fun () -> Adversary.passive);
      (fun () -> Adversary.silent);
      (fun () -> Adversary.crash ~after:40);
      (fun () -> Adversary.garbage ~seed:7);
      (fun () -> Adversary.equivocate ~seed:7);
      (fun () -> Adversary.bitflip ~seed:7);
      (fun () -> Adversary.delayer ());
      (* Protocol-aware attacks (lib/attacks), each aimed at one proof
         obligation — see test/test_attacks.ml. *)
      (fun () -> Attacks.vote_stuffer ~payload:(Sha256.digest "evil"));
      (fun () -> Attacks.tuple_forger ~seed:7);
      (fun () -> Attacks.window_fabricator);
      (fun () -> Attacks.prefix_saboteur);
      (fun () -> Attacks.rotating ~seed:7 ~payload:(Sha256.digest "evil"));
    ]
  in
  let factories =
    if !smoke then
      [ (fun () -> Adversary.passive); (fun () -> Adversary.equivocate ~seed:7) ]
    else factories
  in
  Printf.printf "%-6s %-14s %-16s %-8s %-8s %-8s\n" "corr." "adversary"
    "input attack" "term." "agree" "valid";
  print_endline line;
  let grid =
    List.concat_map
      (fun n_corrupt ->
        List.concat_map
          (fun mk_adversary ->
            List.map
              (fun attack ->
                Workload.cell
                  ~label:
                    (Printf.sprintf "%d/%s/%s" n_corrupt
                       (mk_adversary ()).Adversary.name
                       (Workload.input_attack_name attack))
                  (fun () ->
                    let adversary = mk_adversary () in
                    let rng = Prng.create (n_corrupt + 17) in
                    let corrupt = Array.make n false in
                    let placed = ref 0 in
                    while !placed < n_corrupt do
                      let i = Prng.int rng n in
                      if not corrupt.(i) then begin
                        corrupt.(i) <- true;
                        incr placed
                      end
                    done;
                    let inputs =
                      Workload.sensor_readings rng ~n ~base:(-1004) ~jitter:2
                    in
                    let inputs =
                      Workload.apply_input_attack attack ~corrupt inputs
                    in
                    let honest_inputs =
                      List.filteri
                        (fun i _ -> not corrupt.(i))
                        (Array.to_list inputs)
                    in
                    let term, agree, valid =
                      match
                        Sim.run ~max_rounds:4000 ~allow_excess_corruptions:true
                          ~n ~t ~corrupt ~adversary (fun ctx ->
                            Convex.agree_int ctx inputs.(ctx.Ctx.me))
                      with
                      | outcome -> (
                          match Sim.honest_outputs ~corrupt outcome with
                          | outputs ->
                              let agree =
                                match outputs with
                                | o :: r -> List.for_all (Bigint.equal o) r
                                | [] -> false
                              in
                              let valid =
                                List.for_all
                                  (fun o ->
                                    Convex.in_convex_hull ~inputs:honest_inputs o)
                                  outputs
                              in
                              (true, agree, valid)
                          | exception Failure _ -> (false, false, false))
                      | exception Sim.Round_limit_exceeded _ ->
                          (false, false, false)
                    in
                    ( n_corrupt,
                      adversary.Adversary.name,
                      Workload.input_attack_name attack,
                      term,
                      agree,
                      valid )))
              [
                Workload.Honest_inputs; Workload.Outlier_high;
                Workload.Split_extremes;
              ])
          factories)
      (if !smoke then [ 0; 3 ] else [ 0; 1; 3; 4 ])
  in
  List.iter
    (fun (_, (n_corrupt, name, attack, term, agree, valid)) ->
      let mark b = if b then "yes" else "NO" in
      Printf.printf "%-6d %-14s %-16s %-8s %-8s %-8s%s\n" n_corrupt name attack
        (mark term) (mark agree) (mark valid)
        (if n_corrupt > t && not (term && agree && valid) then
           "   (beyond t: allowed to fail)"
         else ""))
    (Workload.run_cells ~domains:!domains grid)

(* ------------------------------------------------------------------ *)
(* T5: component ablation                                              *)
(* ------------------------------------------------------------------ *)

let t5 () =
  let n = 13 and t = 4 in
  let bits = if !smoke then 1 lsl 10 else 1 lsl 14 in
  header "T5  --  per-component honest bits of one Pi_Z run  (n = 13, l = 2^14)"
    "Claim (Thm 1): Pi_lBA+ costs O(l*n + k*n^2*log n) + BITS(Pi_BA). The RS+Merkle\n\
     distribution (ext_distribute) carries the l*n term; the k-bit agreements\n\
     (pi_ba_plus / pi_ba) are l-independent — our phase-king Pi_BA makes them\n\
     O(k*n^3) instead of the paper's O(k*n^2) (substitution recorded in DESIGN.md).";
  let r = run_protocol ~seed:777 ~n ~t ~bits Workload.pi_z in
  let total = r.Workload.honest_bits in
  Printf.printf "%-22s | %14s | %8s\n" "component" "honest kbits" "share";
  print_endline line;
  List.iter
    (fun (label, b) ->
      Printf.printf "%-22s | %14s | %7.1f%%\n" label (kbits b)
        (100. *. float_of_int b /. float_of_int total))
    r.Workload.labels;
  Printf.printf "%-22s | %14s | %7.1f%%\n" "TOTAL" (kbits total) 100.;
  (* ext_distribute = the l*n codeword term plus the k*n^2*log n Merkle
     witness term, summed over the O(log n) FINDPREFIX iterations. *)
  Printf.printf "\nreference magnitudes: l*n = %s kbits; k*n^2*log2(n)*iters ~= %s kbits.\n"
    (kbits (bits * n))
    (kbits (256 * n * n * 4 * 8))

(* ------------------------------------------------------------------ *)
(* T6: bit-search vs block-search ablation                             *)
(* ------------------------------------------------------------------ *)

let t6 () =
  let n = 4 and t = 1 in
  header "T6  --  FIXEDLENGTHCA vs FIXEDLENGTHCABLOCKS  (n = 4, t = 1)"
    "Claim (Sec. 4): searching over n^2 blocks instead of bits cuts the number of\n\
     Pi_lBA+ invocations from O(log l) to O(log n) and hence the round count, at\n\
     equal O(l*n) leading communication.";
  Printf.printf "%-8s | %21s | %21s | %21s\n" "l (bits)" "iterations (bit/blk)"
    "rounds (bit/blk)" "kbits (bit/blk)";
  print_endline line;
  List.iter
    (fun bits ->
      let corrupt = Workload.spread_corrupt ~n ~t in
      let rng = Prng.create (bits + 1) in
      let inputs =
        Workload.clustered_bits rng ~n ~bits ~shared_prefix_bits:(bits / 2)
      in
      let fixed = Array.map (fun v -> Bigint.to_bitstring_fixed ~bits v) inputs in
      let iters run extract =
        let outcome =
          Sim.run ~n ~t ~corrupt ~adversary:Adversary.passive (fun ctx ->
              run ctx fixed.(ctx.Ctx.me))
        in
        List.fold_left max 0 (List.map extract (Sim.honest_outputs ~corrupt outcome))
      in
      let it_bit =
        iters
          (fun ctx v -> Convex.Find_prefix.run ctx ~bits v)
          (fun r -> r.Convex.Find_prefix.iterations)
      in
      let it_blk =
        iters
          (fun ctx v -> Convex.Find_prefix_blocks.run ctx ~bits v)
          (fun r -> r.Convex.Find_prefix_blocks.iterations)
      in
      let full run =
        let outcome =
          Sim.run ~n ~t ~corrupt ~adversary:Adversary.passive (fun ctx ->
              run ctx fixed.(ctx.Ctx.me))
        in
        (outcome.Sim.metrics.Metrics.rounds, outcome.Sim.metrics.Metrics.honest_bits)
      in
      let rounds_bit, bits_bit = full (fun ctx v -> Convex.agree_fixed_length ctx ~bits v) in
      let rounds_blk, bits_blk =
        full (fun ctx v -> Convex.agree_fixed_length_blocks ctx ~bits v)
      in
      Printf.printf "%-8d | %10d / %-8d | %10d / %-8d | %10s / %-8s\n" bits it_bit
        it_blk rounds_bit rounds_blk (kbits bits_bit) (kbits bits_blk))
    (if !smoke then [ 256 ] else [ 256; 1024; 4096; 16384 ])

(* ------------------------------------------------------------------ *)
(* T7: Π_BA+ property sweep                                            *)
(* ------------------------------------------------------------------ *)

let t7 () =
  let n = 10 and t = 3 in
  header "T7  --  Pi_BA+ Bounded Pre-Agreement sweep  (n = 10, t = 3)"
    "Claim (Thm 6): Pi_BA+ outputs bot only if fewer than n-2t = 4 honest parties\n\
     share an input; any non-bot output is an honest input (Intrusion Tolerance).\n\
     Sweep the number of honest parties sharing a value under three adversaries.";
  Printf.printf "%-10s | %-12s | %-26s | %s\n" "sharing" "adversary" "output"
    "intrusion-tolerant";
  print_endline line;
  List.iter
    (fun sharing ->
      List.iter
        (fun adversary ->
          let corrupt = Array.init n (fun i -> i >= n - t) in
          let inputs =
            Array.init n (fun i ->
                if i < sharing then "shared-digest" else Printf.sprintf "unique-%d" i)
          in
          let outcome =
            Sim.run ~n ~t ~corrupt ~adversary (fun ctx ->
                Baplus.Ba_plus.run ctx inputs.(ctx.Ctx.me))
          in
          let out = List.hd (Sim.honest_outputs ~corrupt outcome) in
          let honest_inputs =
            List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list inputs)
          in
          let it =
            match out with
            | None -> true
            | Some v -> List.exists (String.equal v) honest_inputs
          in
          Printf.printf "%-10d | %-12s | %-26s | %b%s\n" sharing
            adversary.Adversary.name
            (match out with None -> "bot" | Some v -> v)
            it
            (if sharing >= n - (2 * t) && out = None then "   VIOLATION" else ""))
        [ Adversary.passive; Adversary.garbage ~seed:3; Adversary.equivocate ~seed:3 ])
    (if !smoke then [ 0; 4; 7 ] else [ 0; 2; 3; 4; 5; 7 ]);
  Printf.printf "\n(no row may say VIOLATION; rows with sharing >= 4 must be non-bot.)\n"

(* ------------------------------------------------------------------ *)
(* T8: the authenticated regime (t < n/2 with a PKI)                   *)
(* ------------------------------------------------------------------ *)

let t8 () =
  header "T8  --  authenticated setting: CA at t < n/2  (open problem regime)"
    "The paper's conclusion asks whether communication-optimal CA exists for t < n/2\n\
     with cryptographic setup. The classical answer (Dolev-Strong BC per input + trim,\n\
     lib/auth) tolerates up to n/2 corruptions but pays for it in signatures; Pi_Z\n\
     needs no setup but requires t < n/3. This table quantifies that trade.";
  Printf.printf "%-10s | %-22s | %14s | %8s | %8s\n" "n (t)" "protocol" "honest kbits"
    "rounds" "CA holds";
  print_endline line;
  List.iter
    (fun (n, t_auth) ->
      let bits = 64 in
      let rng = Prng.create (900 + n) in
      let mk_inputs corrupt =
        Array.map
          (fun v -> Workload.to_fixed ~bits v)
          (Workload.apply_input_attack Workload.Outlier_high ~corrupt
             (Workload.sensor_readings rng ~n ~base:500000 ~jitter:50))
      in
      (* Authenticated CA at t < n/2 — beyond any plain-model bound. *)
      let corrupt = Workload.spread_corrupt ~n ~t:t_auth in
      let inputs = mk_inputs corrupt in
      let setup = Auth.Setup.generate ~seed:(77 + n) ~n ~capacity:(4 * n) in
      let outcome =
        Sim.run ~setup:`Authenticated ~n ~t:t_auth ~corrupt
          ~adversary:(Adversary.equivocate ~seed:3) (fun ctx ->
            Auth.Auth_ca.run setup ctx ~bits inputs.(ctx.Ctx.me))
      in
      let outputs = Sim.honest_outputs ~corrupt outcome in
      let sorted =
        List.sort Bitstring.compare
          (List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list inputs))
      in
      let lo = List.hd sorted and hi = List.nth sorted (List.length sorted - 1) in
      let holds =
        (match outputs with o :: r -> List.for_all (Bitstring.equal o) r | [] -> false)
        && List.for_all
             (fun o -> Bitstring.compare lo o <= 0 && Bitstring.compare o hi <= 0)
             outputs
      in
      Printf.printf "%-4d (%d)   | %-22s | %14s | %8d | %8b\n" n t_auth
        "Auth-CA (Dolev-Strong)"
        (kbits outcome.Sim.metrics.Metrics.honest_bits)
        outcome.Sim.metrics.Metrics.rounds holds;
      (* Pi_Z at its own bound t < n/3, same workload size. *)
      let t_plain = (n - 1) / 3 in
      let corrupt = Workload.spread_corrupt ~n ~t:t_plain in
      let inputs = mk_inputs corrupt in
      let outcome =
        Sim.run ~n ~t:t_plain ~corrupt ~adversary:(Adversary.equivocate ~seed:3)
          (fun ctx -> Convex.agree_nat ctx (Bigint.of_bitstring inputs.(ctx.Ctx.me)))
      in
      let ok =
        match Sim.honest_outputs ~corrupt outcome with
        | o :: r -> List.for_all (Bigint.equal o) r
        | [] -> false
      in
      Printf.printf "%-4d (%d)   | %-22s | %14s | %8d | %8b\n" n t_plain
        "Pi_Z (plain model)"
        (kbits outcome.Sim.metrics.Metrics.honest_bits)
        outcome.Sim.metrics.Metrics.rounds ok)
    (if !smoke then [ (4, 1) ] else [ (4, 1); (5, 2); (7, 3) ]);
  Printf.printf
    "\n(hash-based signatures are ~17 KB each; the signature term dominates Auth-CA —\n\
     the open problem is precisely whether the t < n/2 row can be made O(l*n)-cheap.)\n"

(* ------------------------------------------------------------------ *)
(* AUTH: the Pi_BA substrate seam — unauth t < n/3 vs auth t < n/2     *)
(* ------------------------------------------------------------------ *)

let auth_exp () =
  header
    "AUTH --  BA substrate backends: unauth (t < n/3) vs auth quorum BA (t < n/2)"
    "The Pi_BA seam admits two backends: the phase-king stack (plain model, t < n/3,\n\
     Pi_Z's default) and the authenticated quorum-certificate BA (XMSS PKI, t < n/2,\n\
     4t+7 rounds). At equal n, the auth backend buys maximal resilience with\n\
     signature bits; both rows must satisfy Definition 1 (agreement + convex\n\
     validity) to land in the ledger.";
  let bits = 32 in
  Printf.printf "%-10s | %-28s | %14s | %8s | %8s\n" "n (t)" "backend" "honest kbits"
    "rounds" "CA holds";
  print_endline line;
  let json_rows = ref [] in
  let row ~backend ~n ~t ~honest_bits ~rounds ~holds =
    Printf.printf "%-4d (%d)   | %-28s | %14s | %8d | %8b\n" n t backend
      (kbits honest_bits) rounds holds;
    json_rows :=
      [
        ("backend", Bench_json.Str backend);
        ("n", Bench_json.Int n);
        ("t", Bench_json.Int t);
        ("bits", Bench_json.Int bits);
        ("honest_bits", Bench_json.Int honest_bits);
        ("rounds", Bench_json.Int rounds);
        ("ca_holds", Bench_json.Bool holds);
      ]
      :: !json_rows
  in
  List.iter
    (fun n ->
      let rng = Prng.create (1100 + n) in
      let mk_inputs corrupt =
        Array.map
          (fun v -> Workload.to_fixed ~bits v)
          (Workload.apply_input_attack Workload.Outlier_high ~corrupt
             (Workload.sensor_readings rng ~n ~base:260000 ~jitter:40))
      in
      (* Unauth backend: the functorized default — Pi_Z at its t < n/3 bound. *)
      let t_plain = (n - 1) / 3 in
      let corrupt = Workload.spread_corrupt ~n ~t:t_plain in
      let inputs = mk_inputs corrupt in
      let report =
        Workload.run_int ~n ~t:t_plain ~corrupt
          ~adversary:(Adversary.equivocate ~seed:6)
          ~inputs:(Array.map Bigint.of_bitstring inputs)
          Workload.pi_z.Workload.run
      in
      row ~backend:"unauth" ~n ~t:t_plain ~honest_bits:report.Workload.honest_bits
        ~rounds:report.Workload.rounds
        ~holds:(report.Workload.agreement && report.Workload.convex_validity);
      (* Auth backend: native t < n/2 CA on the quorum-certificate BA. *)
      let t_auth = (n - 1) / 2 in
      let corrupt = Workload.spread_corrupt ~n ~t:t_auth in
      let inputs = mk_inputs corrupt in
      let setup =
        Auth.Setup.generate ~seed:(1200 + n) ~n
          ~capacity:(Auth.Auth_ba.required_capacity ~t:t_auth ~instances:n)
      in
      let xs = Auth.Auth_ba.of_setup setup in
      let outcome =
        Sim.run ~setup:`Authenticated ~n ~t:t_auth ~corrupt
          ~adversary:(Adversary.equivocate ~seed:6) (fun ctx ->
            Auth.Auth_ba.Xmss.agree xs ctx ~bits inputs.(ctx.Ctx.me))
      in
      let outputs = Sim.honest_outputs ~corrupt outcome in
      let honest_inputs =
        List.filteri (fun i _ -> not corrupt.(i)) (Array.to_list inputs)
      in
      let sorted = List.sort Bitstring.compare honest_inputs in
      let lo = List.hd sorted and hi = List.nth sorted (List.length sorted - 1) in
      let holds =
        (match outputs with
        | o :: r -> List.for_all (Bitstring.equal o) r
        | [] -> false)
        && List.for_all
             (fun o -> Bitstring.compare lo o <= 0 && Bitstring.compare o hi <= 0)
             outputs
      in
      row ~backend:"auth" ~n ~t:t_auth
        ~honest_bits:outcome.Sim.metrics.Metrics.honest_bits
        ~rounds:outcome.Sim.metrics.Metrics.rounds ~holds)
    (if !smoke then [ 4 ] else [ 4; 5; 7 ]);
  write_json ~path:"BENCH_auth.json"
    ~meta:
      [ ("experiment", Bench_json.Str "auth"); ("bits", Bench_json.Int bits) ]
    ~rows:(List.rev !json_rows);
  Printf.printf
    "\n(each XMSS signature is ~17 KB and a quorum certificate carries n-t of them;\n\
     the auth rows trade exactly that bit volume for resilience past n/3.)\n"

(* ------------------------------------------------------------------ *)
(* ADAPTIVE: the fault-adaptive fast path — cost vs actual faults f    *)
(* ------------------------------------------------------------------ *)

let adaptive_exp () =
  header
    "ADAPTIVE --  fault-adaptive fast path: communication vs actual corruptions f"
    "Every protocol above pays its worst-case Theta(t)-driven cost even when nobody\n\
     misbehaves. The adaptive layer (lib/adaptive) puts a 4-round optimistic preamble\n\
     + one bit-BA arbitration in front of Pi_Z: at f = 0 it terminates in\n\
     O(n*l + n^2*k) bits; any active corruption can veto the certificate, after which\n\
     the full stack runs and the preamble is pure overhead. Gates: the f = 0 row must\n\
     be >= 5x below the matching Pi_Z cost (the BENCH_t1 lg13 row), and the f = t row\n\
     within 1.5x of it.";
  let json_rows = ref [] in
  let row ~backend ~f ~n ~t ~bits ~(report : Workload.report) ~fast ~model =
    let holds = report.Workload.agreement && report.Workload.convex_validity in
    if not holds then
      failwith
        (Printf.sprintf "ADAPTIVE: %s violates Definition 1 at f=%d" backend f);
    Printf.printf "%-16s | %2d (of %d) | %14s | %8d | %9s\n" backend f t
      (kbits report.Workload.honest_bits)
      report.Workload.rounds
      (match fast with Some true -> "fast" | Some false -> "fallback" | None -> "-");
    json_rows :=
      [
        ("backend", Bench_json.Str backend);
        ("f", Bench_json.Int f);
        ("n", Bench_json.Int n);
        ("t", Bench_json.Int t);
        ("bits", Bench_json.Int bits);
        ("honest_bits", Bench_json.Int report.Workload.honest_bits);
        ("byz_bits", Bench_json.Int report.Workload.byz_bits);
        ("rounds", Bench_json.Int report.Workload.rounds);
        ( "fast_path",
          match fast with Some b -> Bench_json.Bool b | None -> Bench_json.Null );
        ( "model_bits",
          match model with
          | Some c -> Bench_json.Int c.Ba.Substrate.c_bits
          | None -> Bench_json.Null );
        ( "model_rounds",
          match model with
          | Some c -> Bench_json.Int c.Ba.Substrate.c_rounds
          | None -> Bench_json.Null );
        ("ca_holds", Bench_json.Bool holds);
      ]
      :: !json_rows;
    report.Workload.honest_bits
  in
  Printf.printf "%-16s | %-9s | %14s | %8s | %9s\n" "backend" "f" "honest kbits"
    "rounds" "path";
  print_endline line;
  (* Plain backend at the T1 grid point (n = 13, t = 4, l = 2^13) but on the
     uniform workload: the preamble orders candidates by a 128-bit truncated
     key, so the fast path engages when honest inputs differ within their
     top 128 bits (sensors, prices, timestamps, uniform values) and safely
     falls back on the synthetic clustered workload, whose values share the
     whole top half. The pi_z rows are measured on the identical inputs, so
     the gates compare like with like at the BENCH_t1 lg13 scale. *)
  let n = if !smoke then 7 else 13 in
  let t = if !smoke then 2 else 4 in
  let bits = if !smoke then 1 lsl 9 else 1 lsl 13 in
  let unauth = (module Ba.Substrate.Unauthenticated : Ba.Substrate.S) in
  let sweep_f ~f runner =
    let corrupt = Workload.spread_corrupt ~n ~t:f in
    let rng = Prng.create 113 in
    let inputs =
      Workload.apply_input_attack Workload.Outlier_high ~corrupt
        (Workload.uniform_bits rng ~n ~bits)
    in
    runner ~corrupt ~inputs
  in
  let fs = if !smoke then [ 0; t ] else List.init (t + 1) Fun.id in
  let plain =
    List.map
      (fun f ->
        sweep_f ~f (fun ~corrupt ~inputs ->
            let run p =
              Workload.run_int ~n ~t ~corrupt
                ~adversary:(Adversary.equivocate ~seed:5) ~inputs p
            in
            let pz = run Workload.pi_z.Workload.run in
            let pz_bits =
              row ~backend:"pi_z" ~f ~n ~t ~bits ~report:pz ~fast:None ~model:None
            in
            let stats = Array.init n (fun _ -> Adaptive.stats ()) in
            let ad =
              run
                (Workload.pi_z_adaptive ~stats_of:(fun me -> stats.(me)) ())
                  .Workload.run
            in
            (* All honest parties take the agreed branch; read any one. *)
            let honest =
              Array.to_list stats
              |> List.filteri (fun i _ -> not corrupt.(i))
              |> List.hd
            in
            let fast = honest.Adaptive.fast_taken = 1 in
            if fast <> (f = 0) then
              failwith
                (Printf.sprintf
                   "ADAPTIVE: expected %s at f=%d under equivocation, got %s"
                   (if f = 0 then "fast path" else "fallback")
                   f
                   (if fast then "fast path" else "fallback"));
            let model =
              Adaptive.wrapper_cost
                (Ctx.make ~me:0 ~n ~t)
                ~value_bits:bits ~fallback:unauth ~f
            in
            let ad_bits =
              row ~backend:"adaptive" ~f ~n ~t ~bits ~report:ad
                ~fast:(Some fast) ~model:(Some model)
            in
            (f, pz_bits, ad_bits)))
      fs
  in
  (* The authenticated fallback at its own (smaller) reference point: XMSS
     signatures make each fallback run ~2 Gbit, so the auth sweep stays at
     the BENCH_auth scale. The f-shape is the point, not the n. *)
  let an = if !smoke then 4 else 7 in
  let at = if !smoke then 1 else 2 in
  let abits = if !smoke then 1 lsl 7 else 1 lsl 10 in
  let afs = if !smoke then [ 0 ] else List.init (at + 1) Fun.id in
  List.iter
    (fun f ->
      let corrupt = Workload.spread_corrupt ~n:an ~t:f in
      let rng = Prng.create 113 in
      let inputs =
        Workload.apply_input_attack Workload.Outlier_high ~corrupt
          (Workload.uniform_bits rng ~n:an ~bits:abits)
      in
      let stats = Array.init an (fun _ -> Adaptive.stats ()) in
      let setup =
        Auth.Setup.generate ~seed:(1900 + f) ~n:an
          ~capacity:(Auth.Auth_ba.required_capacity ~t:at ~instances:64)
      in
      let ad =
        Workload.run_int ~setup:`Authenticated ~n:an ~t:at ~corrupt
          ~adversary:(Adversary.equivocate ~seed:5) ~inputs
          (Workload.pi_z_adaptive_auth ~stats_of:(fun me -> stats.(me)) setup)
            .Workload.run
      in
      let honest =
        Array.to_list stats
        |> List.filteri (fun i _ -> not corrupt.(i))
        |> List.hd
      in
      ignore
        (row ~backend:"adaptive-auth" ~f ~n:an ~t:at ~bits:abits ~report:ad
           ~fast:(Some (honest.Adaptive.fast_taken = 1))
           ~model:None))
    afs;
  (* The two gates, against the measured pi_z rows (the f = t one coincides
     with the committed BENCH_t1 lg13 row by construction). *)
  if not !smoke then begin
    let _, pz_t, ad_t = List.nth plain t in
    let _, _, ad_0 = List.hd plain in
    if 5 * ad_0 > pz_t then
      failwith
        (Printf.sprintf
           "ADAPTIVE gate: f=0 fast path (%d bits) not >=5x below Pi_Z (%d bits)"
           ad_0 pz_t);
    if 2 * ad_t > 3 * pz_t then
      failwith
        (Printf.sprintf
           "ADAPTIVE gate: f=t cost (%d bits) above 1.5x Pi_Z (%d bits)" ad_t
           pz_t);
    Printf.printf
      "\ngates: f=0 %.1fx below Pi_Z (>= 5x required); f=t %.2fx of Pi_Z (<= 1.5x allowed)\n"
      (float_of_int pz_t /. float_of_int ad_0)
      (float_of_int ad_t /. float_of_int pz_t)
  end;
  write_json ~path:"BENCH_adaptive.json"
    ~meta:
      [
        ("experiment", Bench_json.Str "adaptive");
        ("n", Bench_json.Int n);
        ("t", Bench_json.Int t);
        ("bits", Bench_json.Int bits);
      ]
    ~rows:(List.rev !json_rows);
  Printf.printf
    "\n(the adaptive f=0 row is the preamble + one bit-BA; every f > 0 row is the\n\
     full Pi_Z cost plus that constant preamble — cost tracks f, not t.)\n"

(* ------------------------------------------------------------------ *)
(* T9: parallel composition economics                                  *)
(* ------------------------------------------------------------------ *)

let t9 () =
  let bits = 256 in
  header "T9  --  parallel protocol composition (Net.Proto.parallel)"
    "Independent sub-protocol instances (the n broadcasts of Broadcast-CA) can be\n\
     round-multiplexed: rounds become max instead of sum of the branches', outputs\n\
     are bit-identical, and the byte overhead is only the multiplex framing.";
  Printf.printf "%-10s | %17s | %17s | %14s | %10s\n" "n (t)" "rounds seq/par"
    "kbits seq/par" "same output" "speedup";
  print_endline line;
  List.iter
    (fun n ->
      let t = (n - 1) / 3 in
      let corrupt = Workload.spread_corrupt ~n ~t in
      let inputs = standard_inputs ~seed:(700 + n) ~n ~bits in
      let measure (p : Workload.protocol) =
        let r =
          Workload.run_int ~n ~t ~corrupt ~adversary:(Adversary.equivocate ~seed:3)
            ~inputs p.Workload.run
        in
        (r.Workload.rounds, r.Workload.honest_bits, r.Workload.outputs)
      in
      let sr, sb, so = measure (Workload.broadcast_ca ~bits) in
      let pr, pb, po = measure (Workload.broadcast_ca_parallel ~bits) in
      Printf.printf "%-4d (%d)   | %7d / %-7d | %8s / %-8s | %14b | %9.1fx\n" n t sr
        pr (kbits sb) (kbits pb)
        (List.for_all2 Bigint.equal so po)
        (float_of_int sr /. float_of_int pr))
    (if !smoke then [ 4 ] else [ 4; 7; 10; 13 ])

(* ------------------------------------------------------------------ *)
(* A1: asynchronous substrate (t < n/5)                                *)
(* ------------------------------------------------------------------ *)

let a1 () =
  header "A1  --  asynchronous approximate agreement, t < n/5  (conclusion's regime)"
    "The conclusion expects the techniques to extend to asynchrony at t < n/5. Exact\n\
     CA is impossible there deterministically (FLP), so the asynchronous library\n\
     provides AA (lib/anet): this table shows geometric convergence of the honest\n\
     diameter under adversarial schedulers, with validity intact.";
  let n = 6 and t = 1 and bits = 24 in
  let corrupt = Array.init n (fun i -> i = 3) in
  let spread0 = 1 lsl 16 in
  let base = 4_000_000 in
  let inputs =
    Array.init n (fun i ->
        if corrupt.(i) then Bitstring.ones bits
        else Bitstring.of_int_fixed ~bits (base + (i * spread0 / n)))
  in
  (* The strongest AA adversary: stay in the honest range but show the low
     end to half the parties and the high end to the other half, every
     round — keeps the honest estimates apart as long as possible. *)
  let two_faced =
    {
      Anet.Async_sim.byz_name = "two-faced";
      rewrite =
        (fun ~src:_ ~dst m ->
          match Anet.Async_aa.decode ~bits m with
          | Some (round, _) ->
              let v = if dst land 1 = 0 then base else base + spread0 in
              Some (Anet.Async_aa.encode ~round (Bitstring.of_int_fixed ~bits v))
          | None -> Some m);
    }
  in
  Printf.printf "%-18s | %10s | %12s | %12s | %10s\n" "scheduler" "rounds"
    "diameter" "contraction" "deliveries";
  print_endline line;
  List.iter
    (fun scheduler ->
      List.iter
        (fun rounds ->
          let outcome =
            Anet.Async_sim.run ~n ~t ~corrupt ~scheduler ~seed:5
              ~byzantine:two_faced (fun ctx ->
                Anet.Async_aa.run ctx ~bits ~rounds inputs.(ctx.Net.Ctx.me))
          in
          let outs =
            List.map Bitstring.to_int
              (Anet.Async_sim.honest_outputs ~corrupt outcome)
          in
          let lo = List.fold_left min (List.hd outs) outs in
          let hi = List.fold_left max (List.hd outs) outs in
          Printf.printf "%-18s | %10d | %12d | %11.0fx | %10d\n"
            scheduler.Anet.Async_sim.sched_name rounds (hi - lo)
            (if hi > lo then float_of_int spread0 /. float_of_int (hi - lo)
             else infinity)
            outcome.Anet.Async_sim.metrics.Anet.Async_sim.delivered)
        (if !smoke then [ 2 ] else [ 2; 6; 10 ]))
    [ Anet.Async_sim.fifo; Anet.Async_sim.lifo; Anet.Async_sim.random ]

(* ------------------------------------------------------------------ *)
(* ENGINE: session-multiplexing throughput                             *)
(* ------------------------------------------------------------------ *)

let engine_bench () =
  let n = 7 and t = 2 in
  header "ENGINE  --  session-multiplexing throughput  (n = 7, t = 2, Pi_Z / 64-bit inputs)"
    "The engine runs K concurrent Pi_Z sessions over one transport, coalescing every\n\
     pair's per-round traffic into a single frame. Per-session cost (honest bits,\n\
     rounds) is invariant in K — sessions are bit-identical to sequential runs —\n\
     while transport frames are shared: frames-saved grows ~linearly in K and the\n\
     engine amortizes the per-frame cost the way a high-traffic oracle deployment\n\
     must. The poll rows drive the same honest sessions through the\n\
     single-process event loop (nonblocking sockets, one select, zero threads),\n\
     from K = 64 into the thousands.";
  let session_inputs k =
    let rng = Prng.create (8100 + k) in
    Workload.clustered_bits rng ~n ~bits:64 ~shared_prefix_bits:32
  in
  let mk_spec ?(adversarial = true) k =
    let inputs = session_inputs k in
    let inputs =
      if adversarial then
        Workload.apply_input_attack Workload.Outlier_high
          ~corrupt:(Workload.spread_corrupt ~n ~t) inputs
      else inputs
    in
    let adversary =
      if adversarial then Adversary.equivocate ~seed:(8200 + k)
      else Adversary.passive
    in
    Engine.session ~sid:k ~adversary (fun ctx ->
        Convex.agree_int ctx inputs.(ctx.Ctx.me))
  in
  Printf.printf "%-12s | %8s | %8s | %10s | %12s | %10s | %10s | %8s | %9s | %7s\n"
    "backend (K)" "rounds" "wall s" "sess/s" "kbits/sess" "frames" "saved"
    "frame-kB" "gc-kw/s" "rss-MB";
  print_endline line;
  (* One timed run: wall clock plus the minor words it allocated — the `gc`
     column (minor words per session) is the allocation-discipline gate the
     hot-path work is held to, alongside throughput. *)
  let timed f =
    let t0 = Unix.gettimeofday () in
    let m0 = Gc.minor_words () in
    let r = f () in
    let words = Gc.minor_words () -. m0 in
    (r, Unix.gettimeofday () -. t0, words)
  in
  let json_rows = ref [] in
  let report backend k (outcome : Bigint.t Engine.outcome) wall words =
    let agg = outcome.Engine.aggregate in
    let per_session =
      float_of_int agg.Engine.honest_bits_total /. float_of_int k /. 1000.
    in
    let gc = words /. float_of_int k in
    (* Peak RSS so far (VmHWM): rows run in ascending K per backend, so the
       column reads as "the footprint K sessions needed". *)
    let rss = Option.value (Net_poll.rss_peak_bytes ()) ~default:0 in
    Printf.printf
      "%-12s | %8d | %8.3f | %10.1f | %12.1f | %10d | %10d | %8.1f | %9.1f | %7.1f\n"
      (Printf.sprintf "%s (%d)" backend k)
      agg.Engine.engine_rounds wall
      (float_of_int k /. wall)
      per_session agg.Engine.frames_sent agg.Engine.frames_saved
      (float_of_int agg.Engine.frame_bytes /. 1000.)
      (gc /. 1000.)
      (float_of_int rss /. (1024. *. 1024.));
    json_rows :=
      [
        ("backend", Bench_json.Str backend);
        ("sessions", Bench_json.Int k);
        ("engine_rounds", Bench_json.Int agg.Engine.engine_rounds);
        ("wall_s", Bench_json.Float wall);
        ("sessions_per_s", Bench_json.Float (float_of_int k /. wall));
        ("honest_bits_per_session",
         Bench_json.Float (float_of_int agg.Engine.honest_bits_total /. float_of_int k));
        ("frames_sent", Bench_json.Int agg.Engine.frames_sent);
        ("naive_frames", Bench_json.Int agg.Engine.naive_frames);
        ("frames_saved", Bench_json.Int agg.Engine.frames_saved);
        ("frame_bytes", Bench_json.Int agg.Engine.frame_bytes);
        ("payload_bytes", Bench_json.Int agg.Engine.payload_bytes);
        ("peak_live", Bench_json.Int agg.Engine.peak_live);
        ("gc", Bench_json.Float gc);
        ("rss_bytes", Bench_json.Int rss);
      ]
      :: !json_rows
  in
  List.iter
    (fun k ->
      let specs = List.init k mk_spec in
      let corrupt = Workload.spread_corrupt ~n ~t in
      let outcome, wall, words =
        timed (fun () -> Engine.run_sim ~n ~t ~corrupt specs)
      in
      assert (outcome.Engine.aggregate.Engine.sessions_completed = k);
      if k > 1 then assert (outcome.Engine.aggregate.Engine.frames_saved > 0);
      report "sim" k outcome wall words)
    (if !smoke then [ 1; 4 ] else [ 1; 4; 16; 64 ]);
  (* The same K honest sessions through the simulator AND over the poll
     socket mesh, so the two transport ledgers can be compared entry for
     entry on an identical workload. The adversarial sim rows above run a
     *different* workload (outlier inputs, equivocation => different
     per-session round counts), which is why their naive_frames column
     legitimately differs from the poll rows'; on equal workloads the ledgers
     must agree exactly, asserted here. *)
  let assert_same_ledger (x : Bigint.t Engine.outcome) (y : Bigint.t Engine.outcome) =
    let a = x.Engine.aggregate and b = y.Engine.aggregate in
    assert (a.Engine.engine_rounds = b.Engine.engine_rounds);
    assert (a.Engine.frames_sent = b.Engine.frames_sent);
    assert (a.Engine.naive_frames = b.Engine.naive_frames);
    assert (a.Engine.frame_bytes = b.Engine.frame_bytes);
    assert (a.Engine.payload_bytes = b.Engine.payload_bytes)
  in
  let k = if !smoke then 8 else 64 in
  let specs = List.init k (mk_spec ~adversarial:false) in
  let sim_honest, wall_sim, words_sim =
    timed (fun () -> Engine.run_sim ~n ~t ~corrupt:(Array.make n false) specs)
  in
  report "sim-honest" k sim_honest wall_sim words_sim;
  let outcome, wall, words =
    timed (fun () -> Engine.run_poll ~n ~t ~corrupt:(Array.make n false) specs)
  in
  assert (outcome.Engine.aggregate.Engine.frames_saved > 0);
  assert_same_ledger sim_honest outcome;
  report "poll" k outcome wall words;
  (* Scale-out rows: the poll backend drives K into the thousands in one
     process — nonblocking sockets, a single select loop, zero threads.
     Honest workload so rows are comparable across K; ascending K keeps the
     peak-RSS column meaningful per row. At the smallest K the identical
     workload replays in the simulator and the full ledgers must agree —
     the bench-level check that the wire moved exactly the simulator's
     bytes. *)
  let poll_ks = if !smoke then [ 8 ] else [ 256; 1024; 4096 ] in
  let poll_top_rate = ref nan and poll_top_gc = ref nan in
  List.iter
    (fun k ->
      let specs = List.init k (mk_spec ~adversarial:false) in
      let outcome, wall, words =
        timed (fun () -> Engine.run_poll ~t ~n ~corrupt:(Array.make n false) specs)
      in
      assert (outcome.Engine.aggregate.Engine.sessions_completed = k);
      assert (outcome.Engine.aggregate.Engine.frames_saved > 0);
      if k = List.hd poll_ks then
        assert_same_ledger
          (Engine.run_sim ~n ~t ~corrupt:(Array.make n false) specs)
          outcome;
      if k = 4096 then begin
        poll_top_rate := float_of_int k /. wall;
        poll_top_gc := words /. float_of_int k
      end;
      report "poll" k outcome wall words)
    poll_ks;
  (* The gc column is part of the ledger row shape (validate_bench enforces
     it on the committed file); assert it here too so even a smoke run fails
     fast if a row is built without it. *)
  List.iter
    (fun row ->
      if not (List.mem_assoc "gc" row) then
        failwith "engine: a bench row is missing the gc column")
    !json_rows;
  write_json ~path:"BENCH_engine.json"
    ~meta:
      [
        ("experiment", Bench_json.Str "engine");
        ("n", Bench_json.Int n);
        ("t", Bench_json.Int t);
        ("protocol", Bench_json.Str "pi-z");
        ("input_bits", Bench_json.Int 64);
      ]
    ~rows:(List.rev !json_rows);
  (* Acceptance gates (full runs only; smoke parameters are too small to be
     meaningful). The hot-path overhaul is held to the pre-overhaul poll
     K=4096 row: throughput must be >= 1.3x the committed baseline, and minor
     allocation per session must stay under a fixed ceiling set just above
     the post-overhaul measurement (allocation counts are deterministic, so
     the 5% headroom only covers stdlib/runtime drift, not noise).

     The overhaul targeted a 5x cut from the 1,552,000-words/session
     pre-overhaul baseline (ceiling 310,400); the shipped result is 3.74x
     (414,760 at K=4096). The remaining floor is protocol-intrinsic, not
     engine overhead: decoded payload strings the protocols must own
     (codewords, proposals), the Reed-Solomon/Merkle authentication work of
     Pi_lBA+, and the closure spine of the free-monad protocol layer.
     Removing those would mean zero-copy payload views or a codensity-style
     monad — tracked in ROADMAP, out of scope for the overhaul. The gate
     therefore pins the achieved level so regressions fail loudly. *)
  if not !smoke then begin
    let baseline_rate = 91.9284 in
    (* sessions/s, BENCH_engine.json @ bb0aed7 *)
    let gc_ceiling = 435_000.0 in
    (* minor words/session: measured 414,760 at K=4096 post-overhaul
       (pre-overhaul tree: 1,552,000, same host, same instrumentation) *)
    if Float.is_nan !poll_top_rate then
      failwith "engine: poll K=4096 row missing (gate input)";
    if !poll_top_rate < 1.3 *. baseline_rate then
      failwith
        (Printf.sprintf
           "engine: poll K=4096 throughput %.1f sessions/s < 1.3x baseline %.1f"
           !poll_top_rate baseline_rate);
    if !poll_top_gc > gc_ceiling then
      failwith
        (Printf.sprintf
           "engine: poll K=4096 allocation %.0f minor words/session > ceiling \
            %.0f" !poll_top_gc gc_ceiling)
  end;
  Printf.printf
    "\n(kbits/sess is flat in K — multiplexing never inflates a session's own cost;\n\
     'saved' counts frames a frame-per-session transport would have sent extra.\n\
     The sim-honest (64) and poll (64) rows run the identical honest workload:\n\
     their full ledgers — engine rounds, frames, naive frames, frame/payload\n\
     bytes — are asserted equal above and in test_engine. The adversarial sim\n\
     rows differ in naive_frames only because equivocation + outlier inputs\n\
     change per-session round counts, i.e. it is a workload difference, not a\n\
     ledger bug. The poll rows move every frame through nonblocking sockets in\n\
     one process; the smallest scale-out K is also ledger-asserted against the\n\
     simulator, and rss-MB is the process's peak resident set after the row.)\n"

(* ------------------------------------------------------------------ *)
(* B1: bechamel wall-clock micro-benchmarks                            *)
(* ------------------------------------------------------------------ *)

let b1 () =
  header "B1  --  substrate wall-clock micro-benchmarks (bechamel, OLS ns/run)"
    "Engineering table: throughput of the from-scratch substrates and of small\n\
     end-to-end protocol runs inside the simulator.";
  let open Bechamel in
  let payload = String.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let leaves = Array.init 16 (fun i -> Printf.sprintf "leaf-%d-payload" i) in
  let tree = Merkle.build leaves in
  let w5 = Merkle.witness tree 5 in
  let root = Merkle.root tree in
  let big_a = Bigint.pred (Bigint.pow2 1024) in
  let big_b = Bigint.add (Bigint.pow2 1023) (Bigint.of_int 12345) in
  let codewords = Reed_solomon.encode ~n:13 ~k:9 payload in
  let shares = List.init 9 (fun i -> (12 - i, codewords.(12 - i))) in
  let run_sim ~n ~t proto =
    let corrupt = Workload.spread_corrupt ~n ~t in
    fun () ->
      ignore
        (Sim.run ~n ~t ~corrupt ~adversary:Adversary.passive (fun ctx ->
             proto ctx ctx.Ctx.me))
  in
  let tests =
    Test.make_grouped ~name:"substrates"
      [
        Test.make ~name:"sha256/4KiB" (Staged.stage (fun () -> ignore (Sha256.digest payload)));
        Test.make ~name:"merkle/build16" (Staged.stage (fun () -> ignore (Merkle.build leaves)));
        Test.make ~name:"merkle/verify"
          (Staged.stage (fun () ->
               ignore (Merkle.verify ~root ~index:5 ~value:leaves.(5) w5)));
        Test.make ~name:"rs/encode(13,9)/4KiB"
          (Staged.stage (fun () -> ignore (Reed_solomon.encode ~n:13 ~k:9 payload)));
        Test.make ~name:"rs/decode(13,9)/4KiB"
          (Staged.stage (fun () -> ignore (Reed_solomon.decode ~n:13 ~k:9 shares)));
        Test.make ~name:"bigint/mul-1024b"
          (Staged.stage (fun () -> ignore (Bigint.mul big_a big_b)));
        Test.make ~name:"bigint/divmod-1024b"
          (Staged.stage (fun () -> ignore (Bigint.divmod big_a big_b)));
        Test.make ~name:"ba/phase-king-n4"
          (Staged.stage
             (run_sim ~n:4 ~t:1 (fun ctx me ->
                  Ba.Phase_king.run_bytes ctx (Printf.sprintf "v%d" me))));
        Test.make ~name:"ca/pi_z-n4-small"
          (Staged.stage
             (run_sim ~n:4 ~t:1 (fun ctx me -> Convex.agree_int ctx (Bigint.of_int (1000 + me)))));
      ]
  in
  let cfg =
    if !smoke then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.05) ~kde:None ()
    else Benchmark.cfg ~limit:500 ~quota:(Time.second 0.4) ~kde:None ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name v acc -> (name, v) :: acc) results [] in
  Printf.printf "%-34s | %16s | %8s\n" "benchmark" "time/run" "r^2";
  print_endline line;
  List.iter
    (fun (name, result) ->
      let est =
        match Analyze.OLS.estimates result with Some (e :: _) -> e | _ -> nan
      in
      let pretty =
        if est > 1e9 then Printf.sprintf "%8.2f s " (est /. 1e9)
        else if est > 1e6 then Printf.sprintf "%8.2f ms" (est /. 1e6)
        else if est > 1e3 then Printf.sprintf "%8.2f us" (est /. 1e3)
        else Printf.sprintf "%8.2f ns" est
      in
      Printf.printf "%-34s | %16s | %8s\n" name pretty
        (match Analyze.OLS.r_square result with
        | Some r -> Printf.sprintf "%.3f" r
        | None -> "-"))
    (List.sort compare rows)

(* ------------------------------------------------------------------ *)
(* SUBSTRATE: coding/hashing kernel throughput + allocation            *)
(* ------------------------------------------------------------------ *)

(* The seed Merkle build, reimplemented locally as the "before" baseline:
   per-node string concatenation ("\x01" ^ l ^ r) and one digest allocation
   per node. Root-identical to Merkle.build (the differential tests prove
   it); only the constant factors differ. *)
let merkle_ref_root values =
  let hash_leaf v = Sha256.digest ("\x00" ^ v) in
  let hash_node l r = Sha256.digest ("\x01" ^ l ^ r) in
  let empty_leaf = Sha256.digest "\x02" in
  let leaves = Array.length values in
  let padded =
    let rec go p = if p >= leaves then p else go (2 * p) in
    go 1
  in
  let level =
    ref
      (Array.init padded (fun i ->
           if i < leaves then hash_leaf values.(i) else empty_leaf))
  in
  while Array.length !level > 1 do
    level :=
      Array.init
        (Array.length !level / 2)
        (fun i -> hash_node !level.(2 * i) !level.((2 * i) + 1))
  done;
  !level.(0)

let substrate () =
  header "SUBSTRATE  --  RS / Merkle / SHA-256 kernel throughput and allocation"
    "Engineering table (no paper claim): the dispersal substrate dominates wall-clock\n\
     once inputs reach megabits (BENCH_t1) and sessions multiply (BENCH_engine). Each\n\
     row times the matrix-form / allocation-free kernel against the seed reference\n\
     path on identical inputs (outputs are bit-identical — see the differential\n\
     tests); 'mwords/op' is Gc minor words allocated per operation.";
  let measure f =
    (* Warm up (and populate codec memos), then time in whole-run batches. *)
    ignore (Sys.opaque_identity (f ()));
    let min_time = if !smoke then 0.02 else 0.4 in
    let t0 = Unix.gettimeofday () in
    let m0 = Gc.minor_words () in
    let reps = ref 0 in
    let elapsed = ref 0.0 in
    while !elapsed < min_time do
      ignore (Sys.opaque_identity (f ()));
      incr reps;
      elapsed := Unix.gettimeofday () -. t0
    done;
    let words = (Gc.minor_words () -. m0) /. float_of_int !reps in
    (float_of_int !reps /. !elapsed, words)
  in
  let mib = 1024. *. 1024. in
  let json_rows = ref [] in
  let emit ~op ~n ~k ~bytes ~unit ~fast ~ref_ops =
    let ops, words = fast and ref_ops, ref_words = ref_ops in
    let speedup = ops /. ref_ops in
    let rate o =
      match unit with
      | `MBs -> Printf.sprintf "%8.1f MB/s" (o *. float_of_int bytes /. mib)
      | `Ops -> Printf.sprintf "%8.0f op/s" o
    in
    Printf.printf "%-26s | %14s | %14s | %8.1fx | %10.0f | %10.0f\n"
      (Printf.sprintf "%s(%d,%d)/%dKiB" op n k (bytes / 1024))
      (rate ops) (rate ref_ops) speedup words ref_words;
    json_rows :=
      [
        ("op", Bench_json.Str op);
        ("n", Bench_json.Int n);
        ("k", Bench_json.Int k);
        ("msg_bytes", Bench_json.Int bytes);
        ("ops_per_s", Bench_json.Float ops);
        ("mb_per_s", Bench_json.Float (ops *. float_of_int bytes /. mib));
        ("ref_ops_per_s", Bench_json.Float ref_ops);
        ("speedup_vs_ref", Bench_json.Float speedup);
        ("minor_words_per_op", Bench_json.Float words);
        ("ref_minor_words_per_op", Bench_json.Float ref_words);
      ]
      :: !json_rows
  in
  Printf.printf "%-26s | %14s | %14s | %9s | %10s | %10s\n" "kernel" "fast"
    "reference" "speedup" "mwords/op" "ref mw/op";
  print_endline line;
  let msg_bytes = if !smoke then 4096 else 65536 in
  let msg = String.init msg_bytes (fun i -> Char.chr ((i * 131) land 0xff)) in
  let rs_speedups =
    List.map
      (fun (n, k) ->
        let codec = Reed_solomon.ctx ~n ~k in
        let enc =
          measure (fun () -> Reed_solomon.encode_with codec msg)
        and enc_ref = measure (fun () -> Reed_solomon_ref.encode ~n ~k msg) in
        emit ~op:"rs_encode" ~n ~k ~bytes:msg_bytes ~unit:`MBs ~fast:enc
          ~ref_ops:enc_ref;
        (* Parity-heavy share set: the worst decode case (no systematic
           copy-through), the one ext_ba_plus hits when low-indexed parties
           are the faulty ones. *)
        let cws = Reed_solomon.encode ~n ~k msg in
        let shares = List.init k (fun i -> (n - 1 - i, cws.(n - 1 - i))) in
        let dec = measure (fun () -> Reed_solomon.decode_with codec shares)
        and dec_ref = measure (fun () -> Reed_solomon_ref.decode ~n ~k shares) in
        emit ~op:"rs_decode" ~n ~k ~bytes:msg_bytes ~unit:`MBs ~fast:dec
          ~ref_ops:dec_ref;
        ((n, k), fst enc /. fst enc_ref))
      [ (13, 5); (13, 9); (40, 27) ]
  in
  let leaves_count = if !smoke then 64 else 1024 in
  let leaves =
    Array.init leaves_count (fun i ->
        String.init 64 (fun j -> Char.chr ((i + (j * 17)) land 0xff)))
  in
  let mb = measure (fun () -> Merkle.build leaves)
  and mb_ref = measure (fun () -> merkle_ref_root leaves) in
  emit ~op:"merkle_build" ~n:leaves_count ~k:0 ~bytes:(64 * leaves_count)
    ~unit:`Ops ~fast:mb ~ref_ops:mb_ref;
  let tree = Merkle.build leaves in
  let root = Merkle.root tree in
  let w = Merkle.witness tree (leaves_count / 2) in
  let mv =
    measure (fun () ->
        Merkle.verify ~root ~index:(leaves_count / 2)
          ~value:leaves.(leaves_count / 2) w)
  in
  emit ~op:"merkle_verify" ~n:leaves_count ~k:0 ~bytes:64 ~unit:`Ops ~fast:mv
    ~ref_ops:mv;
  let sha_bytes = if !smoke then 65536 else 1 lsl 20 in
  let blob = String.init sha_bytes (fun i -> Char.chr ((i * 31) land 0xff)) in
  let sh = measure (fun () -> Sha256.digest blob) in
  emit ~op:"sha256" ~n:0 ~k:0 ~bytes:sha_bytes ~unit:`MBs ~fast:sh ~ref_ops:sh;
  (* The shape Merkle hashes most: a tag byte and two 32-byte children, one
     reused context, through the allocation-free entry points. *)
  let node = Bytes.init 64 (fun i -> Char.chr ((i * 37) land 0xff)) in
  let ctx = Sha256.init () and out = Bytes.create Sha256.digest_size in
  let nd =
    measure (fun () ->
        Sha256.reset ctx;
        Sha256.feed_byte ctx 0x01;
        Sha256.feed_bytes ctx node ~pos:0 ~len:64;
        Sha256.finalize_into ctx out ~pos:0)
  in
  emit ~op:"sha256_node" ~n:0 ~k:0 ~bytes:65 ~unit:`Ops ~fast:nd ~ref_ops:nd;
  write_json ~path:"BENCH_substrate.json"
    ~meta:
      [
        ("experiment", Bench_json.Str "substrate");
        ("msg_bytes", Bench_json.Int msg_bytes);
        ("merkle_leaves", Bench_json.Int leaves_count);
      ]
    ~rows:(List.rev !json_rows);
  (* Acceptance gate (full runs only; smoke params are too small to be
     meaningful): matrix encode at (13, 5) over 64 KiB must beat the
     reference path by >= 5x. *)
  if not !smoke then begin
    let s = List.assoc (13, 5) rs_speedups in
    if s < 5.0 then
      failwith
        (Printf.sprintf "substrate: rs_encode(13,5) speedup %.1fx < 5x" s)
  end

(* ------------------------------------------------------------------ *)
(* TELEMETRY: observability overhead and invariants                    *)
(* ------------------------------------------------------------------ *)

let telemetry_bench () =
  header "TELEMETRY  --  observability overhead on the T1 workload"
    "Engineering table (no paper claim): attaching a span/timeline recorder must\n\
     cost little (gate: <= 10% wall-clock on the T1 workload, probes off) and\n\
     change nothing — span bits must reproduce Metrics.honest_bits exactly\n\
     (ledger equality) and the JSONL export must be byte-identical across runs\n\
     of the same seed. Full-fidelity probe capture renders every party's O(l)\n\
     candidate value per iteration, so its cost scales with l and is reported\n\
     honestly as a separate (ungated) row.";
  let n = 13 and t = 4 in
  (* Big enough that protocol computation dominates: at 2^14 bits a bare run
     takes ~0.1 s, which makes the min-of-reps ratio stable; at 2^12 and
     below the measurement is mostly scheduler noise. *)
  let bits = if !smoke then 1 lsl 9 else 1 lsl 14 in
  let reps = if !smoke then 1 else 7 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  let inputs = standard_inputs ~seed:42 ~n ~bits in
  let inputs = Workload.apply_input_attack Workload.Outlier_high ~corrupt inputs in
  (* Adversary strategies carry PRNG state: a fresh instance per run keeps
     every run (timed or checked, bare or instrumented) identical. *)
  let run ?telemetry () =
    Workload.run_int ?telemetry ~n ~t ~corrupt
      ~adversary:(Adversary.equivocate ~seed:5)
      ~inputs Workload.pi_z.Workload.run
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    Unix.gettimeofday () -. t0
  in
  (* The three tiers are interleaved within each rep (bare, spans-only, full)
     and each takes its min across reps: ambient process state — heap shape,
     page cache, scheduler mood on a 1-core host — then shifts all three
     tiers together instead of biasing whichever tier happened to run last. *)
  let bare_s = ref infinity and spans_s = ref infinity and full_s = ref infinity in
  for _ = 1 to reps do
    let keep best d = if d < !best then best := d in
    keep bare_s (time (fun () -> run ()));
    (* Spans-only: passive byte accounting, the always-on production mode
       and the configuration the 10% gate is about. *)
    keep spans_s
      (time (fun () -> run ~telemetry:(Telemetry.create ~probes:false ()) ()));
    (* Full fidelity: convergence probes render each party's O(l) candidate
       per iteration, so this tier's cost grows with l — recorded, not
       gated. *)
    keep full_s (time (fun () -> run ~telemetry:(Telemetry.create ()) ()))
  done;
  let bare_s = !bare_s and spans_s = !spans_s and full_s = !full_s in
  let spans_overhead = (spans_s -. bare_s) /. bare_s in
  let full_overhead = (full_s -. bare_s) /. bare_s in
  (* Invariant checks on two fresh full-fidelity runs. *)
  let tm1 = Telemetry.create () in
  let r1 = run ~telemetry:tm1 () in
  let tm2 = Telemetry.create () in
  let _r2 = run ~telemetry:tm2 () in
  let j1 = Telemetry.to_jsonl tm1 and j2 = Telemetry.to_jsonl tm2 in
  let ledger_ok = Telemetry.honest_bits_total tm1 = r1.Workload.honest_bits in
  (* A probes-off recorder must see the same spans (same ledger total). *)
  let tm_spans = Telemetry.create ~probes:false () in
  let _r3 = run ~telemetry:tm_spans () in
  let spans_ledger_ok =
    Telemetry.honest_bits_total tm_spans = r1.Workload.honest_bits
  in
  let deterministic = String.equal j1 j2 in
  Printf.printf "%-24s | %12s\n" "measure" "value";
  print_endline line;
  Printf.printf "%-24s | %12.4f\n" "bare s (min of reps)" bare_s;
  Printf.printf "%-24s | %12.4f\n" "spans-only s" spans_s;
  Printf.printf "%-24s | %11.1f%%\n" "spans overhead (gated)"
    (100. *. spans_overhead);
  Printf.printf "%-24s | %12.4f\n" "full (probes) s" full_s;
  Printf.printf "%-24s | %11.1f%%\n" "full overhead" (100. *. full_overhead);
  Printf.printf "%-24s | %12d\n" "honest bits" r1.Workload.honest_bits;
  Printf.printf "%-24s | %12d\n" "span bits"
    (Telemetry.honest_bits_total tm1);
  Printf.printf "%-24s | %12d\n" "jsonl bytes" (String.length j1);
  Printf.printf "%-24s | %12b\n" "ledger equality" (ledger_ok && spans_ledger_ok);
  Printf.printf "%-24s | %12b\n" "deterministic jsonl" deterministic;
  write_json ~path:"BENCH_telemetry.json"
    ~meta:
      [
        ("experiment", Bench_json.Str "telemetry");
        ("n", Bench_json.Int n);
        ("t", Bench_json.Int t);
        ("bits", Bench_json.Int bits);
        ("reps", Bench_json.Int reps);
      ]
    ~rows:
      [
        [
          ("bare_s", Bench_json.Float bare_s);
          ("spans_s", Bench_json.Float spans_s);
          ("spans_overhead_pct", Bench_json.Float (100. *. spans_overhead));
          ("full_s", Bench_json.Float full_s);
          ("full_overhead_pct", Bench_json.Float (100. *. full_overhead));
          ("honest_bits", Bench_json.Int r1.Workload.honest_bits);
          ("span_bits", Bench_json.Int (Telemetry.honest_bits_total tm1));
          ("jsonl_bytes", Bench_json.Int (String.length j1));
          ("ledger_equality", Bench_json.Bool (ledger_ok && spans_ledger_ok));
          ("deterministic_jsonl", Bench_json.Bool deterministic);
        ];
      ];
  (* Acceptance gates. The invariants must hold even at smoke parameters;
     the timing gate is meaningful only on the full workload, and only for
     the spans-only tier (probe capture is O(l) by design). *)
  if not ledger_ok then
    failwith
      (Printf.sprintf "telemetry: ledger mismatch (%d span bits, %d metric bits)"
         (Telemetry.honest_bits_total tm1) r1.Workload.honest_bits);
  if not spans_ledger_ok then
    failwith
      (Printf.sprintf
         "telemetry: probes-off ledger mismatch (%d span bits, %d metric bits)"
         (Telemetry.honest_bits_total tm_spans) r1.Workload.honest_bits);
  if not deterministic then
    failwith "telemetry: JSONL export not byte-identical across runs";
  if not !smoke then begin
    if spans_overhead > 0.10 then
      failwith
        (Printf.sprintf "telemetry: spans-only overhead %.1f%% > 10%%"
           (100. *. spans_overhead));
    (* Probe-tier re-gate: full-fidelity capture renders O(l) candidate
       values per iteration, so it is not held to the 10% bar — but it must
       stay within an explicit factor, and the committed artifact within an
       explicit size, so creep fails loudly instead of accreting (the ledger
       at the time these bounds were set read 372.7% and 534,211 bytes). *)
    if full_overhead > 5.0 then
      failwith
        (Printf.sprintf "telemetry: full-fidelity overhead %.0f%% > 500%%"
           (100. *. full_overhead));
    if String.length j1 > 800_000 then
      failwith
        (Printf.sprintf "telemetry: probe JSONL %d bytes > 800000 ceiling"
           (String.length j1))
  end

(* ------------------------------------------------------------------ *)
(* OBS: observability-plane overhead and determinism                   *)
(* ------------------------------------------------------------------ *)

let obs_bench () =
  header "OBS  --  observability plane overhead on the engine workload"
    "Engineering table (no paper claim): the obs plane (log-bucketed histograms,\n\
     counters, gauges, the periodic GC/RSS sampler) is meant to stay on during\n\
     soaks, so its gate is <= 10% wall-clock on a K-session engine run. The\n\
     deterministic tier is identity-checked here too: the Det JSONL and the\n\
     virtual-clock chrome trace must be byte-identical across sim, poll and\n\
     domains=2, and the frame-bytes histogram must sum to the aggregate ledger\n\
     exactly.";
  let n = 7 and t = 2 in
  let k = if !smoke then 4 else 32 in
  let reps = if !smoke then 1 else 5 in
  let corrupt = Workload.spread_corrupt ~n ~t in
  (* Specs are rebuilt per run: adversary strategies carry PRNG state, so a
     run is a pure function of the seeds. *)
  let mk_specs () =
    List.init k (fun s ->
        let inputs =
          let rng = Prng.create (9300 + s) in
          Workload.apply_input_attack Workload.Outlier_high ~corrupt
            (Workload.clustered_bits rng ~n ~bits:64 ~shared_prefix_bits:32)
        in
        Engine.session ~sid:s ~start_round:s
          ~adversary:(Adversary.equivocate ~seed:(9400 + s))
          (fun ctx -> Convex.agree_int ctx inputs.(ctx.Ctx.me)))
  in
  let time f =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    Unix.gettimeofday () -. t0
  in
  (* Interleaved min-of-reps, as in the telemetry bench: ambient process
     state shifts both tiers together instead of biasing the later one. *)
  let bare_s = ref infinity and obs_s = ref infinity in
  for _ = 1 to reps do
    let keep best d = if d < !best then best := d in
    keep bare_s (time (fun () -> Engine.run_sim ~n ~t ~corrupt (mk_specs ())));
    keep obs_s
      (time (fun () ->
           let obs = Obs.create () in
           let sampler = Obs.Sampler.create () in
           Engine.run_sim ~obs ~sampler ~n ~t ~corrupt (mk_specs ())))
  done;
  let bare_s = !bare_s and obs_s = !obs_s in
  let overhead = (obs_s -. bare_s) /. bare_s in
  (* Determinism: the Det-tier registry export and the virtual-clock chrome
     trace are pure functions of the execution, so sim, poll and a 2-domain
     sim run must produce byte-identical artifacts. *)
  let det_export run =
    let obs = Obs.create () in
    let tm = Telemetry.create () in
    let outcome = run obs tm in
    (Obs.to_jsonl ~tier:Obs.Det obs, Obs.Trace.chrome_trace tm, outcome, obs)
  in
  let sim_j, sim_tr, sim_o, sim_obs =
    det_export (fun obs tm ->
        Engine.run_sim ~obs ~telemetry:tm ~n ~t ~corrupt (mk_specs ()))
  in
  let poll_j, poll_tr, _, _ =
    det_export (fun obs tm ->
        Engine.run_poll ~obs ~telemetry:tm ~n ~t ~corrupt (mk_specs ()))
  in
  let par_j, par_tr, _, _ =
    det_export (fun obs tm ->
        Engine.run_sim ~domains:2 ~obs ~telemetry:tm ~n ~t ~corrupt (mk_specs ()))
  in
  let det_identical =
    String.equal sim_j poll_j && String.equal sim_j par_j
    && String.equal sim_tr poll_tr
    && String.equal sim_tr par_tr
  in
  let frame_h = Obs.hist sim_obs ~tier:Obs.Det "engine/frame_bytes" in
  let hist_ledger_equal =
    Obs.Hist.sum frame_h = sim_o.Engine.aggregate.Engine.frame_bytes
  in
  let trace_events =
    match Obs.Check.chrome_trace sim_tr with
    | Ok c -> c
    | Error msg -> failwith ("obs: chrome trace fails its own schema: " ^ msg)
  in
  (match Obs.Check.registry_jsonl sim_j with
  | Ok _ -> ()
  | Error msg -> failwith ("obs: Det JSONL fails its own schema: " ^ msg));
  Printf.printf "%-24s | %12s\n" "measure" "value";
  print_endline line;
  Printf.printf "%-24s | %12.4f\n" "bare s (min of reps)" bare_s;
  Printf.printf "%-24s | %12.4f\n" "obs+sampler s" obs_s;
  Printf.printf "%-24s | %11.1f%%\n" "overhead (gated)" (100. *. overhead);
  Printf.printf "%-24s | %12d\n" "engine rounds"
    sim_o.Engine.aggregate.Engine.engine_rounds;
  Printf.printf "%-24s | %12d\n" "det jsonl bytes" (String.length sim_j);
  Printf.printf "%-24s | %12d\n" "trace bytes" (String.length sim_tr);
  Printf.printf "%-24s | %12d\n" "trace events" trace_events;
  Printf.printf "%-24s | %12b\n" "det identical (3 ways)" det_identical;
  Printf.printf "%-24s | %12b\n" "hist sum = ledger" hist_ledger_equal;
  write_json ~path:"BENCH_obs.json"
    ~meta:
      [
        ("experiment", Bench_json.Str "obs");
        ("n", Bench_json.Int n);
        ("t", Bench_json.Int t);
        ("sessions", Bench_json.Int k);
        ("reps", Bench_json.Int reps);
      ]
    ~rows:
      [
        [
          ("bare_s", Bench_json.Float bare_s);
          ("obs_s", Bench_json.Float obs_s);
          ("overhead_pct", Bench_json.Float (100. *. overhead));
          ("engine_rounds",
           Bench_json.Int sim_o.Engine.aggregate.Engine.engine_rounds);
          ("det_jsonl_bytes", Bench_json.Int (String.length sim_j));
          ("trace_bytes", Bench_json.Int (String.length sim_tr));
          ("trace_events", Bench_json.Int trace_events);
          ("det_identical", Bench_json.Bool det_identical);
          ("hist_ledger_equal", Bench_json.Bool hist_ledger_equal);
        ];
      ];
  (* The identity gates hold even at smoke parameters; only the timing gate
     needs the full workload. *)
  if not det_identical then
    failwith
      "obs: Det-tier export not byte-identical across sim / poll / domains=2";
  if not hist_ledger_equal then
    failwith
      (Printf.sprintf "obs: frame hist sum %d <> aggregate frame_bytes %d"
         (Obs.Hist.sum frame_h) sim_o.Engine.aggregate.Engine.frame_bytes);
  if not !smoke then begin
    if overhead > 0.10 then
      failwith
        (Printf.sprintf "obs: overhead %.1f%% > 10%%" (100. *. overhead))
  end

(* ------------------------------------------------------------------ *)
(* PARALLEL: multicore fan-out throughput and bit-identity             *)
(* ------------------------------------------------------------------ *)

let parallel_bench () =
  let recommended = Pool.recommended () in
  header
    (Printf.sprintf
       "PARALLEL  --  experiment fan-out over the domain pool  (recommended \
        domains on this host: %d)" recommended)
    "Engineering table (no paper claim): independent experiment cells (seed x\n\
     adversary x n x l grid points) fan out over the fixed domain pool. The hard\n\
     invariant is bit-identity — every domain count must reproduce the sequential\n\
     results and the engine's sequential ledger exactly; the throughput column is\n\
     hardware-honest (the speedup gate is enforced only where the host has the\n\
     cores to meet it, and 'gate_enforced' records the decision).";
  let n = 10 and t = 3 in
  let bits = if !smoke then 1 lsl 8 else 1 lsl 11 in
  let cell_count = if !smoke then 8 else 32 in
  (* Cells are rebuilt per run: thunks construct their own PRNGs and
     adversaries, so a sweep is a pure function of the grid. *)
  let mk_cells () =
    List.init cell_count (fun i ->
        Workload.cell ~label:(Printf.sprintf "cell-%d" i) (fun () ->
            let rng = Prng.create (6000 + i) in
            let inputs =
              Workload.clustered_bits rng ~n ~bits ~shared_prefix_bits:(bits / 2)
            in
            let r =
              Workload.run_int ~n ~t
                ~corrupt:(Workload.spread_corrupt ~n ~t)
                ~adversary:(Adversary.equivocate ~seed:(6100 + i))
                ~inputs Workload.pi_z.Workload.run
            in
            assert (r.Workload.agreement);
            (r.Workload.honest_bits, r.Workload.rounds, r.Workload.labels)))
  in
  (* Gate 1: parallel engine runs must replay the sequential ledger exactly —
     outputs, per-session metrics, aggregate, telemetry JSONL (the same
     invariant test_multicore.ml asserts; re-checked here so `make bench`
     cannot publish numbers from a divergent run). *)
  let engine_fingerprint domains =
    let k = if !smoke then 4 else 8 in
    let en = 7 and et = 2 in
    let specs =
      List.init k (fun s ->
          let inputs =
            let rng = Prng.create (6900 + s) in
            Workload.clustered_bits rng ~n:en ~bits:64 ~shared_prefix_bits:32
          in
          Engine.session ~sid:s ~start_round:s
            ~adversary:(Adversary.equivocate ~seed:(6950 + s))
            (fun ctx -> Convex.agree_int ctx inputs.(ctx.Ctx.me)))
    in
    let telemetry = Telemetry.create () in
    let outcome =
      Engine.run_sim ~domains ~telemetry ~n:en ~t:et
        ~corrupt:(Workload.spread_corrupt ~n:en ~t:et)
        specs
    in
    ( List.map
        (fun r ->
          ( r.Engine.r_sid,
            Array.to_list (Array.map (Option.map Bigint.to_hex) r.Engine.r_outputs),
            r.Engine.r_metrics.Metrics.honest_bits,
            Metrics.labels r.Engine.r_metrics ))
        outcome.Engine.sessions,
      outcome.Engine.aggregate,
      Telemetry.to_jsonl telemetry )
  in
  let engine_base = engine_fingerprint 1 in
  List.iter
    (fun d ->
      if engine_fingerprint d <> engine_base then
        failwith
          (Printf.sprintf
             "parallel: engine run at domains=%d does not replay the \
              sequential ledger" d))
    [ 2; 4 ];
  Printf.printf "engine replay gate: domains 2 and 4 reproduce the sequential \
                 ledger byte-for-byte\n\n";
  (* Throughput sweep. *)
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let seq, seq_wall = time (fun () -> Workload.run_cells ~domains:1 (mk_cells ())) in
  let domain_counts = List.sort_uniq compare [ 1; 2; 4; recommended ] in
  Printf.printf "%-8s | %10s | %10s | %10s | %10s\n" "domains" "wall s"
    "cells/s" "speedup" "identical";
  print_endline line;
  let json_rows = ref [] in
  let speedup_at_4 = ref nan in
  List.iter
    (fun d ->
      let results, wall =
        if d = 1 then (seq, seq_wall)
        else time (fun () -> Workload.run_cells ~domains:d (mk_cells ()))
      in
      (* Gate 2: the fan-out is bit-identical to the sequential sweep. *)
      let identical = results = seq in
      if not identical then
        failwith
          (Printf.sprintf
             "parallel: run_cells at domains=%d diverges from the sequential \
              sweep" d);
      let cells_per_s = float_of_int cell_count /. wall in
      let speedup = seq_wall /. wall in
      if d = 4 then speedup_at_4 := speedup;
      Printf.printf "%-8d | %10.3f | %10.1f | %9.2fx | %10b\n" d wall
        cells_per_s speedup identical;
      json_rows :=
        [
          ("domains", Bench_json.Int d);
          ("wall_s", Bench_json.Float wall);
          ("cells_per_s", Bench_json.Float cells_per_s);
          ("speedup_vs_seq", Bench_json.Float speedup);
          ("identical", Bench_json.Bool identical);
        ]
        :: !json_rows)
    domain_counts;
  (* Gate 3: >= 2x at 4 domains — enforceable only where the host has >= 4
     cores (this container reports recommended = 1, where true parallelism is
     impossible and the honest speedup is ~1x; the ledger records both the
     measurement and whether the gate was live). *)
  let gate_enforced = (not !smoke) && recommended >= 4 in
  if gate_enforced && !speedup_at_4 < 2.0 then
    failwith
      (Printf.sprintf "parallel: speedup %.2fx at 4 domains < 2x (%d cores)"
         !speedup_at_4 recommended);
  Printf.printf
    "\n(speedup gate (>= 2x at 4 domains): %s. Bit-identity gates are always\n\
     enforced — a parallel sweep or engine run that diverges from the\n\
     sequential one fails the harness regardless of host.)\n"
    (if gate_enforced then "ENFORCED"
     else
       Printf.sprintf "recorded, not enforced (host recommends %d domain%s)"
         recommended
         (if recommended = 1 then "" else "s"));
  write_json ~path:"BENCH_parallel.json"
    ~meta:
      [
        ("experiment", Bench_json.Str "parallel");
        ("n", Bench_json.Int n);
        ("t", Bench_json.Int t);
        ("bits", Bench_json.Int bits);
        ("cells", Bench_json.Int cell_count);
        ("recommended_domains", Bench_json.Int recommended);
        ("gate_enforced", Bench_json.Bool gate_enforced);
      ]
    ~rows:(List.rev !json_rows)

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("t1", t1); ("t2", t2); ("f1", f1); ("t3", t3); ("t4", t4); ("t5", t5);
    ("t6", t6); ("t7", t7); ("t8", t8); ("auth", auth_exp);
    ("adaptive", adaptive_exp); ("t9", t9); ("a1", a1);
    ("engine", engine_bench); ("substrate", substrate); ("bench", b1);
    ("telemetry", telemetry_bench); ("obs", obs_bench);
    ("parallel", parallel_bench);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  domains := Pool.recommended ();
  let rec parse ids = function
    | [] -> List.rev ids
    | "--smoke" :: rest ->
        smoke := true;
        parse ids rest
    | "--domains" :: v :: rest -> (
        match int_of_string_opt v with
        | Some d when d >= 1 ->
            domains := d;
            parse ids rest
        | _ ->
            Printf.eprintf "--domains expects an integer >= 1, got %S\n" v;
            exit 2)
    | [ "--domains" ] ->
        prerr_endline "--domains expects a value";
        exit 2
    | id :: rest -> parse (id :: ids) rest
  in
  let ids = parse [] args in
  Bench_json.set_domains !domains;
  Printf.printf "domains: %d (host recommends %d)\n" !domains (Pool.recommended ());
  let requested =
    match ids with _ :: _ -> ids | [] -> List.map fst experiments
  in
  List.iter
    (fun id ->
      match List.assoc_opt id experiments with
      | Some f ->
          (* Major-heap state left behind by one experiment must not skew the
             next one's wall-clock (allocation-heavy measurements pay for GC
             work proportional to live heap): start each experiment from a
             compacted heap, as a standalone run would. *)
          Gc.compact ();
          let t0 = Unix.gettimeofday () in
          f ();
          Printf.printf "\n[%s completed in %.1fs]\n" id (Unix.gettimeofday () -. t0)
      | None ->
          Printf.eprintf "unknown experiment %S; available: %s\n" id
            (String.concat " " (List.map fst experiments));
          exit 1)
    requested
