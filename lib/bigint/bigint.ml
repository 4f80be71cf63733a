(* Sign-magnitude arbitrary precision integers over 30-bit limbs.

   Invariants: [mag] has no trailing (most-significant) zero limbs; the empty
   array is zero; [neg] is false for zero. Limb base 2^30 keeps every
   intermediate product within 62 bits, so plain [int] arithmetic is exact on
   64-bit platforms. *)

let limb_bits = 30
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = { neg : bool; mag : int array }

let normalize_mag mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length mag then mag else Array.sub mag 0 !n

let make neg mag =
  let mag = normalize_mag mag in
  if Array.length mag = 0 then { neg = false; mag } else { neg; mag }

let zero = { neg = false; mag = [||] }
let is_zero a = Array.length a.mag = 0
let sign a = if is_zero a then 0 else if a.neg then -1 else 1

let of_int v =
  let neg = v < 0 in
  (* min_int's negation overflows; handle via successive limbs on the
     absolute value computed limb by limb. *)
  let rec limbs acc v =
    if v = 0 then List.rev acc
    else limbs ((abs (v mod base)) :: acc) (v / base)
  in
  make neg (Array.of_list (limbs [] v))

let one = of_int 1

(* Magnitude primitives ----------------------------------------------------- *)

let mag_compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let mag_add a b =
  let la = Array.length a and lb = Array.length b in
  let n = Stdlib.max la lb in
  let out = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    out.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  out.(n) <- !carry;
  out

(* Precondition: a >= b. *)
let mag_sub a b =
  let la = Array.length a and lb = Array.length b in
  let out = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      out.(i) <- d + base;
      borrow := 1
    end
    else begin
      out.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  out

let mag_mul_school a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let out = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        (* ai*bj <= (2^30-1)^2 < 2^60; plus out and carry stays < 2^62. *)
        let s = out.(i + j) + (ai * b.(j)) + !carry in
        out.(i + j) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      out.(i + lb) <- out.(i + lb) + !carry
    done;
    out
  end

(* Karatsuba above this limb count (~2^10 bits); schoolbook below. *)
let karatsuba_threshold = 32

(* [mag_shift_limbs m k] = m * B^k, for normalized m. *)
let mag_shift_limbs m k =
  if Array.length m = 0 then m
  else Array.append (Array.make k 0) m

let rec mag_mul a b =
  let la = Array.length a and lb = Array.length b in
  if min la lb < karatsuba_threshold then mag_mul_school a b
  else begin
    (* x = x1*B^m + x0, y = y1*B^m + y0;
       xy = z2*B^2m + (z1 - z2 - z0)*B^m + z0 with
       z0 = x0*y0, z2 = x1*y1, z1 = (x0+x1)(y0+y1). *)
    let m = max la lb / 2 in
    let split x =
      let lx = Array.length x in
      if lx <= m then (x, [||])
      else (normalize_mag (Array.sub x 0 m), Array.sub x m (lx - m))
    in
    let x0, x1 = split a and y0, y1 = split b in
    let z0 = mag_mul x0 y0 in
    let z2 = mag_mul x1 y1 in
    let z1 = mag_mul (normalize_mag (mag_add x0 x1)) (normalize_mag (mag_add y0 y1)) in
    let middle =
      normalize_mag (mag_sub (normalize_mag z1) (normalize_mag (mag_add z0 z2)))
    in
    normalize_mag
      (mag_add
         (mag_shift_limbs (normalize_mag z2) (2 * m))
         (mag_add (mag_shift_limbs middle m) z0))
  end

(* Signed operations -------------------------------------------------------- *)

let neg a = if is_zero a then a else { a with neg = not a.neg }
let abs a = { a with neg = false }

let add a b =
  if a.neg = b.neg then make a.neg (mag_add a.mag b.mag)
  else
    let c = mag_compare a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.neg (mag_sub a.mag b.mag)
    else make b.neg (mag_sub b.mag a.mag)

let sub a b = add a (neg b)
let mul a b = make (a.neg <> b.neg) (mag_mul a.mag b.mag)

let compare a b =
  match (sign a, sign b) with
  | sa, sb when sa <> sb -> Stdlib.compare sa sb
  | 0, _ -> 0
  | s, _ ->
      let c = mag_compare a.mag b.mag in
      if s > 0 then c else -c

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

(* Bit-level ----------------------------------------------------------------- *)

let mag_bit_length mag =
  let n = Array.length mag in
  if n = 0 then 0
  else
    let top = mag.(n - 1) in
    let rec width acc v = if v = 0 then acc else width (acc + 1) (v lsr 1) in
    ((n - 1) * limb_bits) + width 0 top

let bit_length a = Stdlib.max 1 (mag_bit_length a.mag)

let get_bit mag i =
  (* i is 0-indexed from the least significant bit. *)
  let limb = i / limb_bits in
  if limb >= Array.length mag then false
  else mag.(limb) land (1 lsl (i mod limb_bits)) <> 0

let shift_left a k =
  if k < 0 then invalid_arg "Bigint.shift_left";
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a.mag in
    let out = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.mag.(i) lsl bits in
      out.(i + limbs) <- out.(i + limbs) lor (v land limb_mask);
      out.(i + limbs + 1) <- v lsr limb_bits
    done;
    make a.neg out
  end

let shift_right a k =
  if k < 0 then invalid_arg "Bigint.shift_right";
  if is_zero a || k = 0 then a
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length a.mag in
    if limbs >= la then zero
    else begin
      let n = la - limbs in
      let out = Array.make n 0 in
      for i = 0 to n - 1 do
        let lo = a.mag.(i + limbs) lsr bits in
        let hi =
          if bits = 0 || i + limbs + 1 >= la then 0
          else (a.mag.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask
        in
        out.(i) <- lo lor hi
      done;
      make a.neg out
    end
  end

let pow2 k =
  if k < 0 then invalid_arg "Bigint.pow2";
  shift_left one k

(* Division: schoolbook shift-and-subtract on magnitudes. Sufficient for the
   library's uses (decimal I/O and workload generation). *)
let mag_divmod a b =
  if Array.length b = 0 then raise Division_by_zero;
  if mag_compare a b < 0 then ([||], a)
  else begin
    let bits_a = mag_bit_length a in
    let q = ref zero and r = ref zero in
    for i = bits_a - 1 downto 0 do
      r := shift_left !r 1;
      if get_bit a i then r := add !r one;
      if mag_compare !r.mag b >= 0 then begin
        r := { neg = false; mag = normalize_mag (mag_sub !r.mag b) };
        q := add (shift_left !q 1) one
      end
      else q := shift_left !q 1
    done;
    (!q.mag, !r.mag)
  end

let divmod a b =
  let q_mag, r_mag = mag_divmod a.mag b.mag in
  (make (a.neg <> b.neg) q_mag, make a.neg r_mag)

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)
let succ a = add a one
let pred a = sub a one

(* Decimal I/O ---------------------------------------------------------------
   Chunked by 10^9 to keep the number of bignum operations low. *)

let chunk = 1_000_000_000
let chunk_big_mag = (of_int chunk).mag

let of_string s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bigint.of_string: empty";
  let negv, start = match s.[0] with '-' -> (true, 1) | '+' -> (false, 1) | _ -> (false, 0) in
  if start >= n then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let i = ref start in
  while !i < n do
    let stop = Stdlib.min n (!i + 9) in
    let width = stop - !i in
    let part = ref 0 in
    for j = !i to stop - 1 do
      match s.[j] with
      | '0' .. '9' -> part := (!part * 10) + (Char.code s.[j] - Char.code '0')
      | _ -> invalid_arg "Bigint.of_string: bad digit"
    done;
    let scale = int_of_float (10. ** float_of_int width) in
    acc := add (mul !acc (of_int scale)) (of_int !part);
    i := stop
  done;
  if negv then neg !acc else !acc

let to_string a =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go mag acc =
      if Array.length mag = 0 then acc
      else
        let q, r = mag_divmod mag chunk_big_mag in
        let r_int =
          Array.to_list r
          |> List.rev
          |> List.fold_left (fun acc limb -> (acc lsl limb_bits) lor limb) 0
        in
        go q (r_int :: acc)
    in
    (match go a.mag [] with
    | [] -> Buffer.add_char buf '0'
    | first :: rest ->
        if a.neg then Buffer.add_char buf '-';
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let pp fmt a = Format.pp_print_string fmt (to_string a)

let to_int_opt a =
  if mag_bit_length a.mag > 62 then None
  else begin
    let v =
      Array.to_list a.mag
      |> List.rev
      |> List.fold_left (fun acc limb -> (acc lsl limb_bits) lor limb) 0
    in
    Some (if a.neg then -v else v)
  end

(* Digit <-> limb packing, one linear pass in either direction. Digits are
   [width] bits, the k-th being the k-th least significant; at most
   limb_bits - 1 + width bits are carried between limbs and digits. *)

(* The magnitude whose digits are [digit 0 .. digit (count - 1)]. *)
let mag_of_digits ~width ~count digit =
  let mag = Array.make (((count * width) + limb_bits - 1) / limb_bits) 0 in
  let acc = ref 0 and acc_bits = ref 0 and limb = ref 0 in
  for k = 0 to count - 1 do
    acc := !acc lor (digit k lsl !acc_bits);
    acc_bits := !acc_bits + width;
    if !acc_bits >= limb_bits then begin
      mag.(!limb) <- !acc land limb_mask;
      incr limb;
      acc := !acc lsr limb_bits;
      acc_bits := !acc_bits - limb_bits
    end
  done;
  if !acc_bits > 0 then mag.(!limb) <- !acc;
  mag

(* Calls [emit k d] for the first [count] digits of [mag] shifted left by
   [low_zeros] bits. *)
let iter_digits ~width ~low_zeros ~count mag emit =
  let acc = ref 0 and acc_bits = ref low_zeros and limb = ref 0 in
  for k = 0 to count - 1 do
    if !acc_bits < width && !limb < Array.length mag then begin
      acc := !acc lor (mag.(!limb) lsl !acc_bits);
      acc_bits := !acc_bits + limb_bits;
      incr limb
    end;
    emit k (!acc land ((1 lsl width) - 1));
    acc := !acc lsr width;
    acc_bits := !acc_bits - width
  done

(* A [bits]-bit bitstring's bytes, read big-endian, are VAL shifted left past
   its 8*bytes - bits zero padding bits. *)
let to_bitstring_fixed ~bits a =
  if mag_bit_length a.mag > bits then invalid_arg "Bigint.to_bitstring_fixed";
  let nbytes = (bits + 7) / 8 in
  let buf = Bytes.create nbytes in
  iter_digits ~width:8 ~low_zeros:((8 * nbytes) - bits) ~count:nbytes a.mag (fun k d ->
      Bytes.unsafe_set buf (nbytes - 1 - k) (Char.unsafe_chr d));
  Option.get (Bitstring.of_bytes ~len:bits (Bytes.unsafe_to_string buf))

let to_bitstring a = to_bitstring_fixed ~bits:(bit_length a) a

let of_bitstring b =
  let data = Bitstring.to_bytes b in
  let nbytes = String.length data in
  let pad = (8 * nbytes) - Bitstring.length b in
  let byte j = if j < 0 then 0 else Char.code (String.unsafe_get data j) in
  make false
    (mag_of_digits ~width:8 ~count:nbytes (fun k ->
         let j = nbytes - 1 - k in
         ((byte j lsr pad) lor (byte (j - 1) lsl (8 - pad))) land 0xff))

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_zero b then a
  else gcd b (rem a b)

(* Hexadecimal I/O ----------------------------------------------------------- *)

let to_hex a =
  if is_zero a then "0"
  else begin
    let nibbles = (mag_bit_length a.mag + 3) / 4 in
    let last = if a.neg then nibbles else nibbles - 1 in
    let buf = Bytes.make (last + 1) '-' in
    iter_digits ~width:4 ~low_zeros:0 ~count:nibbles a.mag (fun k d ->
        Bytes.unsafe_set buf (last - k) "0123456789abcdef".[d]);
    Bytes.unsafe_to_string buf
  end

let of_hex s =
  let n = String.length s in
  if n = 0 then invalid_arg "Bigint.of_hex: empty";
  let negv, start = match s.[0] with '-' -> (true, 1) | '+' -> (false, 1) | _ -> (false, 0) in
  if start >= n then invalid_arg "Bigint.of_hex: no digits";
  make negv
    (mag_of_digits ~width:4 ~count:(n - start) (fun k ->
         match s.[n - 1 - k] with
         | '0' .. '9' as c -> Char.code c - Char.code '0'
         | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
         | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
         | _ -> invalid_arg "Bigint.of_hex: bad digit"))

let of_sign_magnitude ~negative m =
  if sign m < 0 then invalid_arg "Bigint.of_sign_magnitude";
  if negative then neg m else m
