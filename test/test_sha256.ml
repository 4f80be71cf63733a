(* SHA-256 against the FIPS 180-4 / NIST CAVP test vectors, and the
   compression kernel against a reference copy of the original one. *)

(* The original, straightforward kernel: one masked [rotr] per rotation,
   byte-at-a-time loads, every block blitted through [block], and a per-byte
   digest write. It is the differential reference for [Sha256]. *)
module Ref = struct
  let mask = 0xffffffff

  let k =
    [|
      0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
      0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
      0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
      0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
      0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
      0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
      0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
      0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
      0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
      0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
      0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
    |]

  type ctx = {
    mutable h0 : int;
    mutable h1 : int;
    mutable h2 : int;
    mutable h3 : int;
    mutable h4 : int;
    mutable h5 : int;
    mutable h6 : int;
    mutable h7 : int;
    block : Bytes.t; (* 64-byte working block *)
    mutable fill : int; (* bytes currently buffered in [block] *)
    mutable total : int; (* total message bytes fed so far *)
    mutable finished : bool;
    w : int array; (* 64-entry message schedule, reused across blocks *)
  }

  let init () =
    {
      h0 = 0x6a09e667;
      h1 = 0xbb67ae85;
      h2 = 0x3c6ef372;
      h3 = 0xa54ff53a;
      h4 = 0x510e527f;
      h5 = 0x9b05688c;
      h6 = 0x1f83d9ab;
      h7 = 0x5be0cd19;
      block = Bytes.create 64;
      fill = 0;
      total = 0;
      finished = false;
      w = Array.make 64 0;
    }

  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

  let compress ctx =
    let w = ctx.w in
    let b = ctx.block in
    for t = 0 to 15 do
      w.(t) <-
        (Char.code (Bytes.unsafe_get b (4 * t)) lsl 24)
        lor (Char.code (Bytes.unsafe_get b ((4 * t) + 1)) lsl 16)
        lor (Char.code (Bytes.unsafe_get b ((4 * t) + 2)) lsl 8)
        lor Char.code (Bytes.unsafe_get b ((4 * t) + 3))
    done;
    for t = 16 to 63 do
      let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
      let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
      w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask
    done;
    let a = ref ctx.h0
    and bb = ref ctx.h1
    and c = ref ctx.h2
    and d = ref ctx.h3
    and e = ref ctx.h4
    and f = ref ctx.h5
    and g = ref ctx.h6
    and h = ref ctx.h7 in
    for t = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = !e land !f lxor (lnot !e land !g) in
      let t1 = (!h + s1 + ch + k.(t) + w.(t)) land mask in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = !a land !bb lxor (!a land !c) lxor (!bb land !c) in
      let t2 = (s0 + maj) land mask in
      h := !g;
      g := !f;
      f := !e;
      e := (!d + t1) land mask;
      d := !c;
      c := !bb;
      bb := !a;
      a := (t1 + t2) land mask
    done;
    ctx.h0 <- (ctx.h0 + !a) land mask;
    ctx.h1 <- (ctx.h1 + !bb) land mask;
    ctx.h2 <- (ctx.h2 + !c) land mask;
    ctx.h3 <- (ctx.h3 + !d) land mask;
    ctx.h4 <- (ctx.h4 + !e) land mask;
    ctx.h5 <- (ctx.h5 + !f) land mask;
    ctx.h6 <- (ctx.h6 + !g) land mask;
    ctx.h7 <- (ctx.h7 + !h) land mask

  let feed_bytes ctx b ~pos ~len =
    if ctx.finished then invalid_arg "Sha256.feed: finalized context";
    if pos < 0 || len < 0 || pos + len > Bytes.length b then
      invalid_arg "Sha256.feed_bytes: out of range";
    ctx.total <- ctx.total + len;
    let pos = ref pos and left = ref len in
    while !left > 0 do
      let take = min (64 - ctx.fill) !left in
      Bytes.blit b !pos ctx.block ctx.fill take;
      ctx.fill <- ctx.fill + take;
      pos := !pos + take;
      left := !left - take;
      if ctx.fill = 64 then begin
        compress ctx;
        ctx.fill <- 0
      end
    done

  let finalize_into ctx out ~pos =
    if ctx.finished then invalid_arg "Sha256.finalize: finalized context";
    if pos < 0 || pos + 32 > Bytes.length out then
      invalid_arg "Sha256.finalize_into: out of range";
    ctx.finished <- true;
    let total_bits = ctx.total * 8 in
    (* Padding: 0x80, zeros, 64-bit big-endian length. *)
    Bytes.set ctx.block ctx.fill '\x80';
    ctx.fill <- ctx.fill + 1;
    if ctx.fill > 56 then begin
      Bytes.fill ctx.block ctx.fill (64 - ctx.fill) '\000';
      compress ctx;
      ctx.fill <- 0
    end;
    Bytes.fill ctx.block ctx.fill (56 - ctx.fill) '\000';
    for i = 0 to 7 do
      Bytes.set ctx.block (56 + i) (Char.chr ((total_bits lsr (8 * (7 - i))) land 0xff))
    done;
    compress ctx;
    let put i v =
      Bytes.set out (pos + (4 * i)) (Char.chr ((v lsr 24) land 0xff));
      Bytes.set out (pos + (4 * i) + 1) (Char.chr ((v lsr 16) land 0xff));
      Bytes.set out (pos + (4 * i) + 2) (Char.chr ((v lsr 8) land 0xff));
      Bytes.set out (pos + (4 * i) + 3) (Char.chr (v land 0xff))
    in
    put 0 ctx.h0;
    put 1 ctx.h1;
    put 2 ctx.h2;
    put 3 ctx.h3;
    put 4 ctx.h4;
    put 5 ctx.h5;
    put 6 ctx.h6;
    put 7 ctx.h7

  let digest s =
    let ctx = init () in
    feed_bytes ctx (Bytes.of_string s) ~pos:0 ~len:(String.length s);
    let out = Bytes.create 32 in
    finalize_into ctx out ~pos:0;
    Bytes.to_string out
end

let check_hex msg expected input =
  Alcotest.check Alcotest.string msg expected (Sha256.hex input)

let test_nist_vectors () =
  check_hex "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855" "";
  check_hex "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad" "abc";
  check_hex "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  check_hex "448-bit boundary"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"

let test_million_a () =
  check_hex "one million 'a'"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (String.make 1_000_000 'a')

let test_streaming () =
  let whole = Sha256.hex "hello cruel world" in
  let ctx = Sha256.init () in
  Sha256.feed ctx "hello ";
  Sha256.feed ctx "";
  Sha256.feed ctx "cruel";
  Sha256.feed ctx " world";
  Alcotest.check Alcotest.string "chunked = whole" whole (Sha256.to_hex (Sha256.finalize ctx));
  Alcotest.check_raises "no reuse" (Invalid_argument "Sha256.feed: finalized context")
    (fun () -> Sha256.feed ctx "x")

let test_lengths_near_padding_boundary () =
  (* Reference digests for 54..65 byte inputs cross the 55/56 and 64-byte
     boundaries; check streaming equals one-shot for each. *)
  for len = 50 to 70 do
    let s = String.init len (fun i -> Char.chr (i land 0xff)) in
    let ctx = Sha256.init () in
    String.iter (fun c -> Sha256.feed ctx (String.make 1 c)) s;
    Alcotest.check Alcotest.string
      (Printf.sprintf "len %d" len)
      (Sha256.hex s)
      (Sha256.to_hex (Sha256.finalize ctx))
  done

(* ---- allocation-free hot path: reset / feed_byte / feed_bytes /
   finalize_into must agree with the one-shot digest ---- *)

let test_feed_paths_equivalent () =
  let ctx = Sha256.init () in
  let out = Bytes.make 40 '\xff' in
  List.iter
    (fun len ->
      let s = String.init len (fun i -> Char.chr ((i * 7) land 0xff)) in
      (* feed_byte, one byte at a time. *)
      Sha256.reset ctx;
      String.iter (fun c -> Sha256.feed_byte ctx (Char.code c)) s;
      Sha256.finalize_into ctx out ~pos:4;
      Alcotest.check Alcotest.string
        (Printf.sprintf "feed_byte len %d" len)
        (Sha256.hex s)
        (Sha256.to_hex (Bytes.sub_string out 4 32));
      (* feed_bytes on a sub-range of a larger buffer. *)
      Sha256.reset ctx;
      let buf = Bytes.of_string ("##" ^ s ^ "##") in
      Sha256.feed_bytes ctx buf ~pos:2 ~len;
      Sha256.finalize_into ctx out ~pos:0;
      Alcotest.check Alcotest.string
        (Printf.sprintf "feed_bytes len %d" len)
        (Sha256.hex s)
        (Sha256.to_hex (Bytes.sub_string out 0 32)))
    [ 0; 1; 31; 55; 56; 63; 64; 65; 127; 128; 300 ];
  (* Guard bytes outside the 32-byte window must be untouched. *)
  Alcotest.check Alcotest.string "finalize_into writes exactly 32 bytes"
    "ffffffff"
    (Sha256.to_hex (Bytes.sub_string out 36 4))

let test_reset_reuse () =
  (* One context reused across digests, the Merkle-build pattern. *)
  let ctx = Sha256.init () in
  let out = Bytes.create 32 in
  List.iter
    (fun s ->
      Sha256.reset ctx;
      Sha256.feed ctx s;
      Sha256.finalize_into ctx out ~pos:0;
      Alcotest.check Alcotest.string
        (Printf.sprintf "reused ctx on %S" s)
        (Sha256.hex s)
        (Sha256.to_hex (Bytes.to_string out)))
    [ "abc"; ""; "abc"; String.make 200 'q'; "x" ];
  (* reset also revives a context finalized the one-shot way. *)
  Sha256.reset ctx;
  Sha256.feed ctx "spent";
  ignore (Sha256.finalize ctx);
  Sha256.reset ctx;
  Sha256.feed ctx "abc";
  Alcotest.check Alcotest.string "reset after finalize"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.to_hex (Sha256.finalize ctx))

let test_feed_bytes_range_checks () =
  let ctx = Sha256.init () in
  let b = Bytes.create 8 in
  List.iter
    (fun (pos, len) ->
      Alcotest.check_raises
        (Printf.sprintf "pos=%d len=%d" pos len)
        (Invalid_argument "Sha256.feed_bytes: out of range")
        (fun () -> Sha256.feed_bytes ctx b ~pos ~len))
    [ (-1, 4); (0, -1); (5, 4); (9, 0) ];
  let out = Bytes.create 32 in
  List.iter
    (fun pos ->
      Alcotest.check_raises
        (Printf.sprintf "finalize_into pos=%d" pos)
        (Invalid_argument "Sha256.finalize_into: out of range")
        (fun () ->
          let c = Sha256.init () in
          Sha256.finalize_into c out ~pos))
    [ -1; 1; 32 ]

let prop_incremental_equals_oneshot =
  QCheck.Test.make ~name:"reset/feed_byte/feed_bytes = one-shot" ~count:200
    QCheck.(pair string small_nat)
    (fun (s, cut) ->
      let cut = if String.length s = 0 then 0 else cut mod (String.length s + 1) in
      let ctx = Sha256.init () in
      Sha256.reset ctx;
      String.iter (fun c -> Sha256.feed_byte ctx (Char.code c)) (String.sub s 0 cut);
      let rest = Bytes.of_string s in
      Sha256.feed_bytes ctx rest ~pos:cut ~len:(String.length s - cut);
      let out = Bytes.create 32 in
      Sha256.finalize_into ctx out ~pos:0;
      String.equal (Bytes.to_string out) (Sha256.digest s))

let prop_digest_size =
  QCheck.Test.make ~name:"digest is 32 bytes" ~count:100 QCheck.string (fun s ->
      String.length (Sha256.digest s) = 32)

let prop_deterministic =
  QCheck.Test.make ~name:"deterministic" ~count:100 QCheck.string (fun s ->
      String.equal (Sha256.digest s) (Sha256.digest s))

let prop_streaming_split =
  QCheck.Test.make ~name:"arbitrary split = whole" ~count:200
    QCheck.(pair string small_nat)
    (fun (s, cut) ->
      let cut = if String.length s = 0 then 0 else cut mod (String.length s + 1) in
      let ctx = Sha256.init () in
      Sha256.feed ctx (String.sub s 0 cut);
      Sha256.feed ctx (String.sub s cut (String.length s - cut));
      String.equal (Sha256.finalize ctx) (Sha256.digest s))

(* ---- differential tests against the reference kernel ---- *)

(* How one piece of a message reaches the context. *)
type feed_path = Byte | Feed | Feed_bytes

(* Digest [msg] fed as consecutive [(path, pos, len)] pieces. [Feed_bytes]
   reads its piece from a copy of [msg] placed at [off] in a larger buffer,
   so whole blocks are compressed in place at that alignment. *)
let digest_in_pieces ~off msg pieces =
  let buf = Bytes.make (off + String.length msg + 3) '\xa5' in
  Bytes.blit_string msg 0 buf off (String.length msg);
  let ctx = Sha256.init () in
  List.iter
    (fun (path, pos, len) ->
      match path with
      | Byte ->
          for i = pos to pos + len - 1 do
            Sha256.feed_byte ctx (Char.code msg.[i])
          done
      | Feed -> Sha256.feed ctx (String.sub msg pos len)
      | Feed_bytes -> Sha256.feed_bytes ctx buf ~pos:(off + pos) ~len)
    pieces;
  let out = Bytes.create 32 in
  Sha256.finalize_into ctx out ~pos:0;
  Bytes.to_string out

(* Cut [0, len) at the given points into consecutive (path, pos, len)
   pieces. *)
let pieces_of ~len cuts paths =
  let cuts = List.sort_uniq compare (List.map (fun c -> c mod (len + 1)) cuts) in
  let bounds = (0 :: cuts) @ [ len ] in
  let rec go bs ps =
    match (bs, ps) with
    | a :: (b :: _ as rest), p :: ps' -> (p, a, b - a) :: go rest (ps' @ [ p ])
    | _ -> []
  in
  go bounds paths

let gen_case =
  QCheck.Gen.(
    let* len = int_range 0 1000 in
    let* fill = oneofl [ `Random; `Ones; `Zeros ] in
    let* msg =
      match fill with
      | `Random -> string_size ~gen:char (return len)
      | `Ones -> return (String.make len '\xff')
      | `Zeros -> return (String.make len '\x00')
    in
    let* off = int_range 0 127 in
    let* cuts = list_size (int_range 0 3) (int_range 0 1000) in
    let* paths = list_size (return 4) (oneofl [ Byte; Feed; Feed_bytes ]) in
    return (msg, off, cuts, paths))

let print_case (msg, off, cuts, _) =
  Printf.sprintf "len=%d off=%d cuts=[%s] msg=%s" (String.length msg) off
    (String.concat ";" (List.map string_of_int cuts))
    (Sha256.to_hex msg)

let prop_matches_reference =
  QCheck.Test.make ~name:"kernel = reference kernel (pieces, offsets, carries)"
    ~count:500 (QCheck.make ~print:print_case gen_case)
    (fun (msg, off, cuts, paths) ->
      let pieces = pieces_of ~len:(String.length msg) cuts paths in
      String.equal (digest_in_pieces ~off msg pieces) (Ref.digest msg))

let test_every_alignment () =
  (* Every source offset mod 64 (hence mod 4), with the context empty (whole
     blocks come straight from the buffer) and with one byte already
     buffered (the blit path tops the block up first). *)
  List.iter
    (fun len ->
      List.iter
        (fun (name, msg) ->
          for off = 0 to 63 do
            List.iter
              (fun pieces ->
                Alcotest.check Alcotest.string
                  (Printf.sprintf "%s len=%d off=%d pieces=%d" name len off
                     (List.length pieces))
                  (Sha256.to_hex (Ref.digest msg))
                  (Sha256.to_hex (digest_in_pieces ~off msg pieces)))
              [
                [ (Feed_bytes, 0, len) ];
                (if len = 0 then [] else [ (Byte, 0, 1); (Feed_bytes, 1, len - 1) ]);
              ]
          done)
        [
          ("ones", String.make len '\xff');
          ("zeros", String.make len '\x00');
          ("mixed", String.init len (fun i -> Char.chr ((i * 157) land 0xff)));
        ])
    [ 0; 1; 55; 56; 63; 64; 65; 127; 128; 129; 200 ]

(* ---- the documented hot path allocates nothing per digest ---- *)

let hot_path_words ~digests buf ~pos ~len =
  let ctx = Sha256.init () in
  let out = Bytes.create 32 in
  let m0 = Gc.minor_words () in
  for _ = 1 to digests do
    Sha256.reset ctx;
    Sha256.feed_byte ctx 0x01;
    Sha256.feed_bytes ctx buf ~pos ~len;
    Sha256.finalize_into ctx out ~pos:0
  done;
  Gc.minor_words () -. m0

let test_hot_path_allocation_free () =
  let node = Bytes.init 64 (fun i -> Char.chr (i * 3)) in
  let slice = Bytes.init 1001 (fun i -> Char.chr ((i * 89) land 0xff)) in
  List.iter
    (fun (name, buf, pos, len) ->
      let few = hot_path_words ~digests:1_000 buf ~pos ~len
      and many = hot_path_words ~digests:10_000 buf ~pos ~len in
      if many > few then
        Alcotest.failf "%s: %.0f minor words over 10,000 digests > %.0f over 1,000"
          name many few)
    [ ("65-byte node", node, 0, 64); ("997-byte slice at offset 3", slice, 3, 997) ]

let suite =
  [
    Alcotest.test_case "NIST vectors" `Quick test_nist_vectors;
    Alcotest.test_case "million a" `Slow test_million_a;
    Alcotest.test_case "streaming" `Quick test_streaming;
    Alcotest.test_case "padding boundaries" `Quick test_lengths_near_padding_boundary;
    Alcotest.test_case "feed paths equivalent" `Quick test_feed_paths_equivalent;
    Alcotest.test_case "reset + reuse" `Quick test_reset_reuse;
    Alcotest.test_case "feed_bytes range checks" `Quick test_feed_bytes_range_checks;
    QCheck_alcotest.to_alcotest prop_incremental_equals_oneshot;
    QCheck_alcotest.to_alcotest prop_digest_size;
    QCheck_alcotest.to_alcotest prop_deterministic;
    QCheck_alcotest.to_alcotest prop_streaming_split;
    Alcotest.test_case "every source alignment = reference" `Quick test_every_alignment;
    Alcotest.test_case "hot path allocation-free" `Quick test_hot_path_allocation_free;
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]
