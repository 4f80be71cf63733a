(** The front door for Convex Agreement on integers: HIGHCOSTCA below ℓ*
    bits, Π_ℤ above.

    Π_ℤ costs O(ℓn + κ·n²·log²n); the κ·n²·log²n term dominates short
    inputs, where HIGHCOSTCA's O(ℓ·n³) is far cheaper. The front door keeps
    Π_ℤ's shape — a sign bit-BA, then a regime bit-BA, then one of two
    regimes — with the regime BA deciding [bit_length m > ℓ*] in place of
    Π_ℕ's line-1 [len > n²]:

    - long: Π_ℕ's long regime verbatim ({!Ca_nat.long_regime}), so an input
      set whose honest values are all longer than ℓ* runs Π_ℤ round for
      round;
    - short: cap m at 2^ℓ*−1, agree on a width w = [bit_length m] with
      HIGHCOSTCA on ⌈log₂(ℓ*+1)⌉-bit values, clamp w to [1, ℓ*], cap m at
      2^w−1 and run HIGHCOSTCA on the w-bit values.

    Validity: a binary BA outputs an honest input, so under "short" some
    honest magnitude fits ℓ* bits and the first cap stays inside the honest
    hull; the agreed width lies within the honest widths, so some honest
    magnitude is below 2^w and the second cap stays inside it too; and
    HIGHCOSTCA outputs a value within the range of the honest inputs it was
    given. The long regime's validity does not depend on the threshold.

    The front door needs n² ≤ ℓ* (n ≤ 22): Π_ℕ's long regime works on n²
    blocks and is meant for inputs longer than n² bits, so for larger n the
    front door is exactly {!Ca_int.run}. *)

open Net

let ( let* ) = Proto.( let* )

(* ℓ* = 2^9. Measured under Net.Sim (honest bits, passive and equivocate,
   n in {4, 7, 10, 13}): HIGHCOSTCA beats Π_ℤ at every ℓ <= 2^9, is at
   parity with it near ℓ = 2^10, and loses at ℓ = 2^11. *)
let short_bits = 512

(* Bits that hold every width 0 .. ℓ*: ⌈log₂(ℓ* + 1)⌉. *)
let width_bits =
  let rec go acc p = if p > short_bits then acc else go (acc + 1) (2 * p) in
  go 0 1

let applies (ctx : Ctx.t) = ctx.Ctx.n * ctx.Ctx.n <= short_bits

(* Cap [m] at 2^bits − 1. *)
let cap ~bits m =
  if Bigint.bit_length m > bits then Bigint.pred (Bigint.pow2 bits) else m

let run (ctx : Ctx.t) v_in =
  if not (applies ctx) then Ca_int.run ctx v_in
  else
    let sign_in = Bigint.sign v_in < 0 in
    let* sign_out = Ba.Phase_king.run_bit ctx sign_in in
    let m = if Bool.equal sign_out sign_in then Bigint.abs v_in else Bigint.zero in
    let signed out = Bigint.of_sign_magnitude ~negative:sign_out out in
    let* long = Ba.Phase_king.run_bit ctx (Bigint.bit_length m > short_bits) in
    if long then Proto.map (Ca_nat.long_regime ctx m) signed
    else
      let m = cap ~bits:short_bits m in
      let* w =
        Proto.with_label "length_estimation"
          (High_cost_ca.run ctx ~bits:width_bits
             (Bitstring.of_int_fixed ~bits:width_bits (Bigint.bit_length m)))
      in
      let w = max 1 (min short_bits (Bitstring.to_int w)) in
      Proto.map
        (High_cost_ca.run ctx ~bits:w (Bigint.to_bitstring_fixed ~bits:w (cap ~bits:w m)))
        (fun out -> signed (Bigint.of_bitstring out))
