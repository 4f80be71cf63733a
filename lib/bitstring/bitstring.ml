(* Bits are packed MSB-first: bit i (1-indexed) lives in byte (i-1)/8 at
   in-byte position 7-((i-1) mod 8). The buffer may have up to 7 unused
   trailing bits, which are kept at zero so that structural equality of the
   packed form coincides with bitstring equality. *)

type t = { len : int; data : string }

let empty = { len = 0; data = "" }

let bytes_needed len = (len + 7) / 8

let zero len =
  if len < 0 then invalid_arg "Bitstring.zero";
  { len; data = String.make (bytes_needed len) '\000' }

let unsafe_get data i =
  let byte = Char.code (String.unsafe_get data ((i - 1) lsr 3)) in
  byte land (0x80 lsr ((i - 1) land 7)) <> 0

let get b i =
  if i < 1 || i > b.len then invalid_arg "Bitstring.get";
  unsafe_get b.data i

let init len f =
  if len < 0 then invalid_arg "Bitstring.init";
  let buf = Bytes.make (bytes_needed len) '\000' in
  for i = 1 to len do
    if f i then begin
      let j = (i - 1) lsr 3 in
      let cur = Char.code (Bytes.unsafe_get buf j) in
      Bytes.unsafe_set buf j (Char.chr (cur lor (0x80 lsr ((i - 1) land 7))))
    end
  done;
  { len; data = Bytes.unsafe_to_string buf }

(* Zeroes the padding bits of the last byte of a [len]-bit buffer. *)
let clear_padding buf len =
  let rem = len land 7 in
  if rem <> 0 then begin
    let j = Bytes.length buf - 1 in
    Bytes.unsafe_set buf j
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get buf j) land (0xff lsl (8 - rem))))
  end

let ones len =
  if len < 0 then invalid_arg "Bitstring.ones";
  let buf = Bytes.make (bytes_needed len) '\xff' in
  clear_padding buf len;
  { len; data = Bytes.unsafe_to_string buf }

let of_bool_list bits =
  let arr = Array.of_list bits in
  init (Array.length arr) (fun i -> arr.(i - 1))

let of_string s =
  init (String.length s) (fun i ->
      match s.[i - 1] with
      | '0' -> false
      | '1' -> true
      | _ -> invalid_arg "Bitstring.of_string")

let length b = b.len
let is_empty b = b.len = 0

let to_bool_list b = List.init b.len (fun i -> unsafe_get b.data (i + 1))

let to_string b =
  String.init b.len (fun i -> if unsafe_get b.data (i + 1) then '1' else '0')

let pp fmt b = Format.pp_print_string fmt (to_string b)

let sub b ~pos ~len =
  if len < 0 || pos < 1 || pos + len - 1 > b.len then
    invalid_arg "Bitstring.sub";
  if len = b.len then b
  else begin
    let nbytes = bytes_needed len in
    let first = (pos - 1) lsr 3 and shift = (pos - 1) land 7 in
    let buf =
      if shift = 0 then Bytes.sub (Bytes.unsafe_of_string b.data) first nbytes
      else begin
        (* Output byte k takes the low 8-shift bits of source byte first+k
           and the high shift bits of the next one. *)
        let src = b.data and last = String.length b.data - 1 in
        Bytes.init nbytes (fun k ->
            let q = first + k in
            let hi = Char.code (String.unsafe_get src q) lsl shift in
            let lo =
              if q < last then Char.code (String.unsafe_get src (q + 1)) lsr (8 - shift) else 0
            in
            Char.unsafe_chr ((hi lor lo) land 0xff))
      end
    in
    clear_padding buf len;
    { len; data = Bytes.unsafe_to_string buf }
  end

let range b ~left ~right =
  if left > right then empty else sub b ~pos:left ~len:(right - left + 1)

let prefix b k = sub b ~pos:1 ~len:k

let append a b =
  if a.len = 0 then b
  else if b.len = 0 then a
  else if a.len land 7 = 0 then
    (* a ends on a byte boundary: plain concatenation of buffers. *)
    { len = a.len + b.len; data = a.data ^ b.data }
  else begin
    let len = a.len + b.len in
    let buf = Bytes.make (bytes_needed len) '\000' in
    Bytes.blit_string a.data 0 buf 0 (String.length a.data);
    (* Byte k of b straddles bytes q+k and q+k+1 of the result. The low
       bits of b's last byte may fall past the result's end; they are
       padding, hence zero, and are dropped. *)
    let q = a.len lsr 3 and shift = a.len land 7 and last = Bytes.length buf - 1 in
    String.iteri
      (fun k c ->
        let v = Char.code c and j = q + k in
        Bytes.unsafe_set buf j
          (Char.unsafe_chr (Char.code (Bytes.unsafe_get buf j) lor (v lsr shift)));
        if j < last then
          Bytes.unsafe_set buf (j + 1) (Char.unsafe_chr ((v lsl (8 - shift)) land 0xff)))
      b.data;
    { len; data = Bytes.unsafe_to_string buf }
  end

let append_bit b bit =
  append b (if bit then { len = 1; data = "\x80" } else { len = 1; data = "\000" })

let concat bs = List.fold_left append empty bs

(* Number of leading bits, among the first [n], on which [a] and [b] agree.
   Whole bytes are compared; only the first differing byte is resolved bit
   by bit. Both buffers must hold at least [n] bits. *)
let common_bits a b n =
  let nbytes = bytes_needed n in
  let rec go j =
    if j >= nbytes then n
    else
      let x = Char.code (String.unsafe_get a.data j) lxor Char.code (String.unsafe_get b.data j) in
      if x = 0 then go (j + 1)
      else
        let rec lead k = if x land (0x80 lsr k) <> 0 then k else lead (k + 1) in
        min n ((8 * j) + lead 0)
  in
  go 0

let is_prefix ~prefix:p b = p.len <= b.len && common_bits p b p.len = p.len

let longest_common_prefix a b = prefix a (common_bits a b (min a.len b.len))

let of_int v =
  if v < 0 then invalid_arg "Bitstring.of_int";
  let rec width acc v = if v = 0 then acc else width (acc + 1) (v lsr 1) in
  let k = max 1 (width 0 v) in
  init k (fun i -> v land (1 lsl (k - i)) <> 0)

let significant_bits b =
  let rec first_one i = if i > b.len then b.len + 1 else if unsafe_get b.data i then i else first_one (i + 1) in
  if b.len = 0 then 0
  else
    let f = first_one 1 in
    if f > b.len then 1 (* all zeros: value 0 needs one bit *) else b.len - f + 1

let strip_leading_zeros b =
  if b.len = 0 then empty else sub b ~pos:(b.len - significant_bits b + 1) ~len:(significant_bits b)

let pad_to len b =
  if significant_bits b > len then invalid_arg "Bitstring.pad_to";
  if b.len = len then b
  else if b.len < len then append (zero (len - b.len)) b
  else sub b ~pos:(b.len - len + 1) ~len

let of_int_fixed ~bits v =
  let m = of_int v in
  if significant_bits m > bits then invalid_arg "Bitstring.of_int_fixed";
  pad_to bits m

let to_int b =
  let m = strip_leading_zeros b in
  if m.len > 62 then invalid_arg "Bitstring.to_int";
  let rec go acc i = if i > m.len then acc else go ((acc lsl 1) lor (if unsafe_get m.data i then 1 else 0)) (i + 1) in
  go 0 1

let min_fill len p =
  if p.len > len then invalid_arg "Bitstring.min_fill";
  append p (zero (len - p.len))

let max_fill len p =
  if p.len > len then invalid_arg "Bitstring.max_fill";
  append p (ones (len - p.len))

let equal a b = a.len = b.len && String.equal a.data b.data

let compare a b =
  (* Lexicographic on bits, then shorter < longer. *)
  let n = min a.len b.len in
  let k = common_bits a b n in
  if k = n then Stdlib.compare a.len b.len
  else if unsafe_get a.data (k + 1) then 1
  else -1

let compare_val a b =
  let a = strip_leading_zeros a and b = strip_leading_zeros b in
  (* Both minimal: 0 is "0"; any other value starts with 1, so longer means
     strictly greater, except that "0" must compare below "1...". *)
  let norm x = if x.len = 1 && not (unsafe_get x.data 1) then empty else x in
  let a = norm a and b = norm b in
  if a.len <> b.len then Stdlib.compare a.len b.len else compare a b

let blocks ~block_bits b =
  if block_bits <= 0 then invalid_arg "Bitstring.blocks";
  if b.len mod block_bits <> 0 then invalid_arg "Bitstring.blocks: length not a multiple";
  List.init (b.len / block_bits) (fun k -> sub b ~pos:((k * block_bits) + 1) ~len:block_bits)

let to_bytes b = b.data

let of_bytes ~len s =
  if len < 0 || String.length s <> bytes_needed len then None
  else
    let rem = len land 7 in
    let padding_ok =
      rem = 0 || len = 0
      || Char.code s.[String.length s - 1] land (0xff lsr rem) = 0
    in
    if padding_ok then Some { len; data = s } else None
