(* Unit and property tests for the arbitrary-precision integer substrate. *)

module Z = Bigint

let z = Alcotest.testable Z.pp Z.equal
let check_z = Alcotest.check z
let zs = Z.of_string

let test_of_to_string () =
  Alcotest.check Alcotest.string "zero" "0" (Z.to_string Z.zero);
  Alcotest.check Alcotest.string "small" "42" (Z.to_string (Z.of_int 42));
  Alcotest.check Alcotest.string "negative" "-42" (Z.to_string (Z.of_int (-42)));
  let big = "123456789012345678901234567890123456789" in
  Alcotest.check Alcotest.string "big roundtrip" big (Z.to_string (zs big));
  Alcotest.check Alcotest.string "neg big roundtrip" ("-" ^ big) (Z.to_string (zs ("-" ^ big)));
  Alcotest.check Alcotest.string "plus sign" "7" (Z.to_string (zs "+7"));
  Alcotest.check Alcotest.string "leading zeros" "7" (Z.to_string (zs "007"));
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty") (fun () ->
      ignore (zs ""));
  Alcotest.check_raises "junk" (Invalid_argument "Bigint.of_string: bad digit") (fun () ->
      ignore (zs "12a4"))

let test_arithmetic () =
  check_z "add" (zs "1000000000000000000000") (Z.add (zs "999999999999999999999") Z.one);
  check_z "sub crossing zero" (Z.of_int (-1)) (Z.sub (Z.of_int 5) (Z.of_int 6));
  check_z "mul" (zs "121932631112635269") (Z.mul (zs "123456789") (zs "987654321"));
  check_z "mul signs" (zs "-6") (Z.mul (Z.of_int 2) (Z.of_int (-3)));
  check_z "neg zero is zero" Z.zero (Z.neg Z.zero);
  check_z "abs" (Z.of_int 9) (Z.abs (Z.of_int (-9)));
  check_z "succ/pred" (Z.of_int 0) (Z.pred (Z.succ Z.zero));
  check_z "min_int safe" (zs (string_of_int min_int)) (Z.of_int min_int)

let test_divmod () =
  let q, r = Z.divmod (zs "1000000000000000000007") (zs "1000000007") in
  check_z "quotient" (zs "999999993000") (q);
  check_z "check identity" (zs "1000000000000000000007")
    (Z.add (Z.mul q (zs "1000000007")) r);
  let q, r = Z.divmod (Z.of_int (-7)) (Z.of_int 2) in
  check_z "trunc q" (Z.of_int (-3)) q;
  check_z "trunc r" (Z.of_int (-1)) r;
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (Z.divmod Z.one Z.zero))

let test_shift_pow2 () =
  check_z "pow2" (zs "1267650600228229401496703205376") (Z.pow2 100);
  check_z "shl" (Z.of_int 40) (Z.shift_left (Z.of_int 5) 3);
  check_z "shr" (Z.of_int 5) (Z.shift_right (Z.of_int 40) 3);
  check_z "shr to zero" Z.zero (Z.shift_right (Z.of_int 40) 63);
  check_z "shl big" (Z.mul (Z.pow2 61) (Z.of_int 3)) (Z.shift_left (Z.of_int 3) 61)

let test_bits () =
  Alcotest.check Alcotest.int "bit_length 0" 1 (Z.bit_length Z.zero);
  Alcotest.check Alcotest.int "bit_length 1" 1 (Z.bit_length Z.one);
  Alcotest.check Alcotest.int "bit_length 2^100" 101 (Z.bit_length (Z.pow2 100));
  Alcotest.check Alcotest.string "to_bitstring" "110"
    (Bitstring.to_string (Z.to_bitstring (Z.of_int 6)));
  Alcotest.check Alcotest.string "to_bitstring 0" "0"
    (Bitstring.to_string (Z.to_bitstring Z.zero));
  Alcotest.check Alcotest.string "fixed" "00000110"
    (Bitstring.to_string (Z.to_bitstring_fixed ~bits:8 (Z.of_int 6)));
  check_z "of_bitstring" (Z.of_int 6) (Z.of_bitstring (Bitstring.of_string "00110"));
  check_z "roundtrip big" (Z.pow2 200) (Z.of_bitstring (Z.to_bitstring (Z.pow2 200)));
  Alcotest.check (Alcotest.option Alcotest.int) "to_int_opt" (Some (-77))
    (Z.to_int_opt (Z.of_int (-77)));
  Alcotest.check (Alcotest.option Alcotest.int) "to_int_opt overflow" None
    (Z.to_int_opt (Z.pow2 100));
  check_z "sign magnitude" (Z.of_int (-6)) (Z.of_sign_magnitude ~negative:true (Z.of_int 6))

let test_gcd () =
  check_z "gcd basic" (Z.of_int 6) (Z.gcd (Z.of_int 54) (Z.of_int 24));
  check_z "gcd signs" (Z.of_int 6) (Z.gcd (Z.of_int (-54)) (Z.of_int 24));
  check_z "gcd zero" (Z.of_int 7) (Z.gcd Z.zero (Z.of_int 7));
  check_z "gcd both zero" Z.zero (Z.gcd Z.zero Z.zero);
  check_z "gcd coprime" Z.one (Z.gcd (zs "1000000007") (zs "998244353"));
  (* gcd(2^200 * 3, 2^150 * 5) = 2^150. *)
  check_z "gcd big powers" (Z.pow2 150)
    (Z.gcd (Z.mul (Z.pow2 200) (Z.of_int 3)) (Z.mul (Z.pow2 150) (Z.of_int 5)))

let test_hex () =
  Alcotest.check Alcotest.string "zero" "0" (Z.to_hex Z.zero);
  Alcotest.check Alcotest.string "beef" "beef" (Z.to_hex (Z.of_int 0xbeef));
  Alcotest.check Alcotest.string "negative" "-ff" (Z.to_hex (Z.of_int (-255)));
  check_z "of_hex" (Z.of_int 0xdead) (Z.of_hex "dead");
  check_z "of_hex upper" (Z.of_int 0xDEAD) (Z.of_hex "DEAD");
  check_z "of_hex sign" (Z.of_int (-16)) (Z.of_hex "-10");
  check_z "roundtrip big" (Z.pred (Z.pow2 521)) (Z.of_hex (Z.to_hex (Z.pred (Z.pow2 521))));
  Alcotest.check_raises "junk" (Invalid_argument "Bigint.of_hex: bad digit") (fun () ->
      ignore (Z.of_hex "12g4"));
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_hex: empty") (fun () ->
      ignore (Z.of_hex ""))

let test_karatsuba_crossing () =
  (* Exercise products whose operand sizes straddle the Karatsuba threshold
     (32 limbs = 960 bits) and validate against an independent identity:
     (2^k - 1) * (2^k + 1) = 2^2k - 1. *)
  List.iter
    (fun k ->
      let a = Z.pred (Z.pow2 k) and b = Z.succ (Z.pow2 k) in
      check_z
        (Printf.sprintf "difference of squares k=%d" k)
        (Z.pred (Z.pow2 (2 * k)))
        (Z.mul a b))
    [ 100; 900; 959; 960; 961; 1500; 2048; 5000 ];
  (* And against decimal arithmetic: (10^d - 1)^2 = 10^2d - 2*10^d + 1. *)
  List.iter
    (fun d ->
      let nines = zs (String.make d '9') in
      let expected =
        Z.add (Z.sub (zs ("1" ^ String.make (2 * d) '0')) (zs ("2" ^ String.make d '0'))) Z.one
      in
      check_z (Printf.sprintf "nines squared d=%d" d) expected (Z.mul nines nines))
    [ 280; 300; 600 ]

(* Property tests against OCaml int as the reference model. *)

let arb_small = QCheck.int_range (-1_000_000_000) 1_000_000_000

let binop name f g =
  QCheck.Test.make ~name ~count:500 (QCheck.pair arb_small arb_small) (fun (x, y) ->
      Z.equal (f (Z.of_int x) (Z.of_int y)) (Z.of_int (g x y)))

let prop_add = binop "add matches int" Z.add ( + )
let prop_sub = binop "sub matches int" Z.sub ( - )
let prop_mul = binop "mul matches int" Z.mul ( * )

let prop_compare =
  QCheck.Test.make ~name:"compare matches int" ~count:500 (QCheck.pair arb_small arb_small)
    (fun (x, y) -> Z.compare (Z.of_int x) (Z.of_int y) = compare x y)

let prop_divmod =
  QCheck.Test.make ~name:"divmod matches int" ~count:500 (QCheck.pair arb_small arb_small)
    (fun (x, y) ->
      QCheck.assume (y <> 0);
      let q, r = Z.divmod (Z.of_int x) (Z.of_int y) in
      Z.equal q (Z.of_int (x / y)) && Z.equal r (Z.of_int (x mod y)))

let prop_string_roundtrip =
  QCheck.Test.make ~name:"decimal roundtrip" ~count:300 QCheck.int (fun x ->
      Z.equal (zs (string_of_int x)) (Z.of_int x)
      && String.equal (Z.to_string (Z.of_int x)) (string_of_int x))

let prop_bitstring_roundtrip =
  QCheck.Test.make ~name:"bitstring roundtrip" ~count:300 QCheck.(int_bound max_int)
    (fun x -> Z.equal (Z.of_bitstring (Z.to_bitstring (Z.of_int x))) (Z.of_int x))

let prop_karatsuba_matches_distributivity =
  (* Random multi-limb products checked via (a+c)(b+d) expansion at sizes
     beyond the Karatsuba threshold. *)
  QCheck.Test.make ~name:"karatsuba distributivity (large)" ~count:30
    (QCheck.pair arb_small arb_small) (fun (x, y) ->
      let a = Z.add (Z.mul (Z.of_int (abs x + 1)) (Z.pow2 1100)) (Z.of_int (abs y)) in
      let b = Z.add (Z.mul (Z.of_int (abs y + 1)) (Z.pow2 1050)) (Z.of_int (abs x)) in
      let c = Z.of_int 12345 and d = Z.of_int 67890 in
      let lhs = Z.mul (Z.add a c) (Z.add b d) in
      let rhs =
        Z.add (Z.add (Z.mul a b) (Z.mul a d)) (Z.add (Z.mul c b) (Z.mul c d))
      in
      Z.equal lhs rhs)

let prop_gcd_divides =
  QCheck.Test.make ~name:"gcd divides both" ~count:200 (QCheck.pair arb_small arb_small)
    (fun (x, y) ->
      QCheck.assume (x <> 0 || y <> 0);
      let g = Z.gcd (Z.of_int x) (Z.of_int y) in
      Z.sign g > 0
      && Z.is_zero (Z.rem (Z.of_int x) g)
      && Z.is_zero (Z.rem (Z.of_int y) g))

let prop_hex_roundtrip =
  QCheck.Test.make ~name:"hex roundtrip" ~count:300 QCheck.int (fun x ->
      Z.equal (Z.of_hex (Z.to_hex (Z.of_int x))) (Z.of_int x))

let prop_mul_big_identity =
  (* (a+b)^2 = a^2 + 2ab + b^2 over multi-limb values. *)
  QCheck.Test.make ~name:"multi-limb distributivity" ~count:100
    (QCheck.pair arb_small arb_small) (fun (x, y) ->
      let a = Z.mul (Z.of_int x) (Z.pow2 120) and b = Z.of_int y in
      let lhs = Z.mul (Z.add a b) (Z.add a b) in
      let rhs = Z.add (Z.add (Z.mul a a) (Z.shift_left (Z.mul a b) 1)) (Z.mul b b) in
      Z.equal lhs rhs)

let prop_shift_is_pow2_mul =
  QCheck.Test.make ~name:"shift_left = mul pow2" ~count:200
    QCheck.(pair arb_small (int_bound 80))
    (fun (x, k) -> Z.equal (Z.shift_left (Z.of_int x) k) (Z.mul (Z.of_int x) (Z.pow2 k)))

(* Differential tests against the original chunked shift-add conversions.
   The references cost O(l^2) and touch the value only through arithmetic,
   shifts and per-bit [Bitstring.get]/[init]. *)

let ref_of_bitstring b =
  let len = Bitstring.length b in
  let acc = ref Z.zero in
  let i = ref 1 in
  while !i <= len do
    let stop = min len (!i + 29) in
    let part = ref 0 in
    for j = !i to stop do
      part := (!part lsl 1) lor if Bitstring.get b j then 1 else 0
    done;
    acc := Z.add (Z.shift_left !acc (stop - !i + 1)) (Z.of_int !part);
    i := stop + 1
  done;
  !acc

(* Low [bits] bits of |a| (MSB first), split off 30 at a time. *)
let ref_low_bits ~bits a =
  let limbs = Array.make ((bits / 30) + 1) 0 in
  let rest = ref (Z.abs a) in
  Array.iteri
    (fun k _ ->
      let high = Z.shift_right !rest 30 in
      limbs.(k) <- Option.get (Z.to_int_opt (Z.sub !rest (Z.shift_left high 30)));
      rest := high)
    limbs;
  Bitstring.init bits (fun i ->
      let k = bits - i in
      limbs.(k / 30) land (1 lsl (k mod 30)) <> 0)

let ref_fits ~bits a = Z.compare (Z.abs a) (Z.pow2 bits) < 0

let ref_to_hex a =
  if Z.is_zero a then "0"
  else
    let nib = (Z.bit_length a + 3) / 4 in
    let b = ref_low_bits ~bits:(4 * nib) a in
    String.concat ""
      ((if Z.sign a < 0 then "-" else "")
      :: List.init nib (fun k ->
             let v = Bitstring.to_int (Bitstring.sub b ~pos:((4 * k) + 1) ~len:4) in
             String.make 1 "0123456789abcdef".[v]))

let ref_of_hex s =
  let negv, start = match s.[0] with '-' -> (true, 1) | '+' -> (false, 1) | _ -> (false, 0) in
  let acc = ref Z.zero in
  for i = start to String.length s - 1 do
    acc := Z.add (Z.shift_left !acc 4) (Z.of_int (int_of_string ("0x" ^ String.make 1 s.[i])))
  done;
  if negv then Z.neg !acc else !acc

(* Bitstrings of 0..2000 bits: random, with leading zeros, all ones or all
   zeros; lengths free or a multiple of 8 or of 30. *)
let gen_value_bits =
  QCheck.Gen.(
    int_range 0 2000 >>= fun n ->
    oneofl [ n; n / 8 * 8; n / 30 * 30 ] >>= fun len ->
    int_range 0 len >>= fun zeros ->
    oneofl [ `Random; `Leading_zeros; `Ones; `Zeros ] >>= fun shape ->
    array_repeat len bool >|= fun r ->
    Bitstring.init len (fun i ->
        match shape with
        | `Random -> r.(i - 1)
        | `Leading_zeros -> i > zeros && r.(i - 1)
        | `Ones -> true
        | `Zeros -> false))

let arb_value_bits = QCheck.make ~print:Bitstring.to_string gen_value_bits

let bits_ok b =
  Option.equal Bitstring.equal
    (Bitstring.of_bytes ~len:(Bitstring.length b) (Bitstring.to_bytes b))
    (Some b)

let prop_of_bitstring_ref =
  QCheck.Test.make ~name:"of_bitstring = shift-add reference" ~count:300 arb_value_bits (fun b ->
      Z.equal (Z.of_bitstring b) (ref_of_bitstring b))

let prop_to_bitstring_ref =
  QCheck.Test.make ~name:"to_bitstring(_fixed) = reference" ~count:200
    QCheck.(pair arb_value_bits bool)
    (fun (b, negative) ->
      let v = Z.of_sign_magnitude ~negative (ref_of_bitstring b) in
      let min_bits = Z.bit_length v and len = Bitstring.length b in
      let t = Z.to_bitstring v in
      Bitstring.equal t (ref_low_bits ~bits:min_bits v)
      && bits_ok t
      && List.for_all
           (fun bits ->
             let fits = bits >= 0 && ref_fits ~bits v in
             match Z.to_bitstring_fixed ~bits v with
             | f -> fits && bits_ok f && Bitstring.equal f (ref_low_bits ~bits v)
             | exception Invalid_argument _ -> not fits)
           [ -1; 0; min_bits - 1; min_bits; min_bits + 1; min_bits + 7; len; len + 30 ])

let prop_hex_ref =
  QCheck.Test.make ~name:"to_hex/of_hex = reference" ~count:200
    QCheck.(pair arb_value_bits bool)
    (fun (b, negative) ->
      let v = Z.of_sign_magnitude ~negative (ref_of_bitstring b) in
      let h = Z.to_hex v in
      let padded =
        (if negative then "-00" else "+00") ^ String.uppercase_ascii (ref_to_hex (Z.abs v))
      in
      String.equal h (ref_to_hex v)
      && Z.equal (Z.of_hex h) v
      && Z.equal (Z.of_hex padded) (ref_of_hex padded))

(* Guard against a quadratic conversion: at l = 2^16 each direction
   allocates at most l/8 words (the limb array alone is l/30 words). Counted
   in words, not timed, so the bound is deterministic. *)
let words_allocated f =
  let minor0, promoted0, major0 = Gc.counters () in
  ignore (Sys.opaque_identity (f ()));
  let minor1, promoted1, major1 = Gc.counters () in
  (minor1 -. minor0) +. (major1 -. major0) -. (promoted1 -. promoted0)

let test_conversions_allocate_linearly () =
  let l = 1 lsl 16 in
  let b = Bitstring.init l (fun i -> i = 1 || (i * 7919) mod 13 < 6) in
  let v = Z.of_bitstring b in
  let bound = float_of_int (l / 8) in
  let of_words = words_allocated (fun () -> Z.of_bitstring b) in
  let to_words = words_allocated (fun () -> Z.to_bitstring_fixed ~bits:l v) in
  if of_words > bound then Alcotest.failf "of_bitstring allocated %.0f words > %.0f" of_words bound;
  if to_words > bound then
    Alcotest.failf "to_bitstring_fixed allocated %.0f words > %.0f" to_words bound

let suite =
  [
    Alcotest.test_case "decimal io" `Quick test_of_to_string;
    Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "divmod" `Quick test_divmod;
    Alcotest.test_case "shift/pow2" `Quick test_shift_pow2;
    Alcotest.test_case "bit views" `Quick test_bits;
    Alcotest.test_case "gcd" `Quick test_gcd;
    Alcotest.test_case "hex io" `Quick test_hex;
    Alcotest.test_case "karatsuba crossing" `Quick test_karatsuba_crossing;
    QCheck_alcotest.to_alcotest prop_karatsuba_matches_distributivity;
    QCheck_alcotest.to_alcotest prop_gcd_divides;
    QCheck_alcotest.to_alcotest prop_hex_roundtrip;
    QCheck_alcotest.to_alcotest prop_add;
    QCheck_alcotest.to_alcotest prop_sub;
    QCheck_alcotest.to_alcotest prop_mul;
    QCheck_alcotest.to_alcotest prop_compare;
    QCheck_alcotest.to_alcotest prop_divmod;
    QCheck_alcotest.to_alcotest prop_string_roundtrip;
    QCheck_alcotest.to_alcotest prop_bitstring_roundtrip;
    QCheck_alcotest.to_alcotest prop_mul_big_identity;
    QCheck_alcotest.to_alcotest prop_shift_is_pow2_mul;
    QCheck_alcotest.to_alcotest prop_of_bitstring_ref;
    QCheck_alcotest.to_alcotest prop_to_bitstring_ref;
    QCheck_alcotest.to_alcotest prop_hex_ref;
    Alcotest.test_case "conversions allocate linearly (l = 2^16)" `Quick
      test_conversions_allocate_linearly;
  ]
