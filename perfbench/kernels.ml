(* Standalone substrate kernels, timed outside the workload phase at the sizes
   the calling workload uses. Each kernel is warmed up, then timed in blocks
   of calibrated repetitions; the result is the median block's time per
   operation and the minor-heap words per operation. *)

let now_s = Layers.now_s

type sample = { per_op_s : float; words_per_op : float }

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  a.(Array.length a / 2)

(* [measure f] times five blocks of calls to [f], each block long enough to
   last 20 ms (at least one call). Calibrating the block length doubles as
   the warm-up. *)
let measure f =
  let blocks = 5 and block_s = 0.02 in
  let time_reps reps =
    let t0 = now_s () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (f ()))
    done;
    now_s () -. t0
  in
  let rec calibrate reps =
    let dt = time_reps reps in
    if dt >= block_s || reps >= 1 lsl 20 then reps else calibrate (reps * 2)
  in
  let reps = calibrate 1 in
  let w0 = Gc.minor_words () in
  let times = Array.init blocks (fun _ -> time_reps reps /. float_of_int reps) in
  let words = (Gc.minor_words () -. w0) /. float_of_int (blocks * reps) in
  { per_op_s = median times; words_per_op = words }

type sizes = {
  n : int;
  t : int;
  bits : int;  (** input length ℓ *)
  mean_frame_bytes : float;  (** engine ledger frame_bytes / frames_sent *)
  entries_per_frame : float;  (** naive_frames / frames_sent *)
}

let random_bits rng bits = Bitstring.init bits (fun i -> i = 0 || Net.Prng.bool rng)

(* A frame shaped like the workload's mean frame: the mean entry count, with
   payloads sized so the encoding matches the mean frame size. *)
let mean_frame ~round s =
  let entries = max 1 (int_of_float (Float.round s.entries_per_frame)) in
  let probe payload =
    Wire.Frame.encoded_size
      { Wire.Frame.round; entries = List.init entries (fun i -> (i, String.make payload 'x')) }
  in
  let overhead = probe 0 in
  let payload =
    max 0 (int_of_float (Float.round ((s.mean_frame_bytes -. float_of_int overhead) /. float_of_int entries)))
  in
  { Wire.Frame.round; entries = List.init entries (fun i -> (i, String.make payload 'x')) }

let pki_capacity = Auth.Auth_ba.required_capacity ~t:1 ~instances:64

(* All kernels as (metric name, unit, value) triples. *)
let run ~seed s =
  let rng = Net.Prng.create (seed + 17) in
  let out = ref [] in
  let add name unit v = out := (name, unit, v) :: !out in
  let timed name unit_scale unit f =
    let m = measure f in
    add (name ^ "_" ^ unit) unit (m.per_op_s *. unit_scale);
    add (name ^ "_words") "word" m.words_per_op
  in
  (* Bigint <-> Bitstring at ℓ. *)
  let bs = random_bits rng s.bits in
  let big = Bigint.of_bitstring bs in
  timed "bigint.of_bitstring" 1e3 "ms" (fun () -> Bigint.of_bitstring bs);
  timed "bigint.to_bitstring" 1e3 "ms" (fun () -> Bigint.to_bitstring big);
  (* Dispersal of an ℓ-bit value: RS(n, n-t), Merkle over the codewords,
     SHA-256 over the value. *)
  let payload = Net.Prng.bytes rng (max 1 (s.bits / 8)) in
  let k = s.n - s.t in
  let ctx = Reed_solomon.ctx ~n:s.n ~k in
  let codewords = Reed_solomon.encode_with ctx payload in
  (* The last k shares include parity, so decoding interpolates. *)
  let shares = List.init k (fun i -> (s.n - k + i, codewords.(s.n - k + i))) in
  (match Reed_solomon.decode_with ctx shares with
  | Ok v when v = payload -> ()
  | _ -> failwith "Reed-Solomon round trip failed");
  timed "reed_solomon.encode" 1e6 "us" (fun () -> Reed_solomon.encode_with ctx payload);
  timed "reed_solomon.decode" 1e6 "us" (fun () -> Reed_solomon.decode_with ctx shares);
  let tree = Merkle.build codewords in
  let root = Merkle.root tree and witness = Merkle.witness tree (s.n - 1) in
  if not (Merkle.verify ~root ~index:(s.n - 1) ~value:codewords.(s.n - 1) witness) then
    failwith "Merkle witness rejected";
  timed "merkle.build" 1e6 "us" (fun () -> Merkle.build codewords);
  timed "merkle.verify" 1e6 "us" (fun () ->
      Merkle.verify ~root ~index:(s.n - 1) ~value:codewords.(s.n - 1) witness);
  let m = measure (fun () -> Sha256.digest payload) in
  add "sha256.mb_s" "MB/s" (float_of_int (String.length payload) /. m.per_op_s *. 1e-6);
  add "sha256.words" "word" m.words_per_op;
  (* Wire frames at the workload's mean frame. *)
  let frame = mean_frame ~round:1 s in
  let encoded = Wire.Frame.encode frame in
  if Wire.Frame.decode encoded <> Some frame then failwith "frame round trip failed";
  let buf = Bytes.create (String.length encoded) in
  timed "wire.frame_encode" 1e6 "us" (fun () -> Wire.Frame.encode_into frame buf 0);
  timed "wire.frame_decode" 1e6 "us" (fun () -> Wire.Frame.decode encoded);
  (* The authenticated path at auth-short's parameters (n=4, t=1). *)
  (* One timed call: at close to a second per call, the workload phase before
     it has already grown the heap this call would otherwise warm. *)
  let w0 = Gc.minor_words () in
  let t0 = now_s () in
  let setup = Auth.Setup.generate ~seed ~n:4 ~capacity:pki_capacity in
  add "auth.setup_s" "s" (now_s () -. t0);
  add "auth.setup_words" "word" (Gc.minor_words () -. w0);
  let msg = Sha256.digest "perfbench" in
  (* Signing consumes one-time keys: a fixed number of signatures spread over
     the four signers stays inside their capacity. *)
  let signer = ref 0 in
  let sign () =
    signer := (!signer + 1) mod 4;
    Sigs.Xmss.sign setup.Auth.Setup.signers.(!signer) msg
  in
  for _ = 1 to 8 do
    ignore (sign ())
  done;
  let per_block = 40 in
  let w0 = Gc.minor_words () in
  let times =
    Array.init 5 (fun _ ->
        let t0 = now_s () in
        for _ = 1 to per_block do
          ignore (Sys.opaque_identity (sign ()))
        done;
        (now_s () -. t0) /. float_of_int per_block)
  in
  add "sigs.sign_us" "us" (median times *. 1e6);
  add "sigs.sign_words" "word" ((Gc.minor_words () -. w0) /. float_of_int (5 * per_block));
  let signature = sign () in
  let public = setup.Auth.Setup.pki.(!signer) in
  if not (Sigs.Xmss.verify ~public ~msg signature) then failwith "signature rejected";
  timed "sigs.verify" 1e6 "us" (fun () -> Sigs.Xmss.verify ~public ~msg signature);
  add "sigs.signature_bytes" "B"
    (float_of_int (String.length (Sigs.Xmss.encode_signature signature)));
  List.rev !out
