(** The front door for Convex Agreement on integers ({!Convex.agree_int}):
    HIGHCOSTCA below ℓ* bits, Π_ℤ above.

    After Π_ℤ's sign bit-BA, a regime bit-BA decides [bit_length m > ℓ*]
    (replacing Π_ℕ's line-1 [len > n²], so no round is added). "Long" runs
    Π_ℕ's long regime verbatim — round for round Π_ℤ when every honest input
    is longer than ℓ*. "Short" agrees on a width with HIGHCOSTCA and then
    runs HIGHCOSTCA on values capped to that width: O(ℓ·n³) bits, against
    Π_ℤ's κ·n²·log²n term, and 6(t+1) + 2·(2 + 4(t+1)) rounds (46 at
    n=7, t=2).

    The front door applies while n² ≤ ℓ* (n ≤ 22); for larger n it is
    exactly {!Ca_int.run}. *)

val short_bits : int
(** ℓ* = 512: the largest magnitude width the short regime runs on. *)

val applies : Net.Ctx.t -> bool
(** [n² <= short_bits]: whether {!run} differs from {!Ca_int.run}. *)

val run : Net.Ctx.t -> Bigint.t -> Bigint.t Net.Proto.t
(** [run ctx v] joins Convex Agreement with input [v]; honest parties obtain
    a common integer within their inputs' range (Definition 1). *)
