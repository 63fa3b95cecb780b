(* Exact order statistics over per-operation samples. Nothing is
   bucketed: every sample is kept and sorted once. *)

type t = { mutable a : float array; mutable n : int }

let create ?(cap = 1024) () = { a = Array.make (max 1 cap) 0.; n = 0 }

let clear t = t.n <- 0

let add t x =
  if t.n = Array.length t.a then begin
    let b = Array.make (2 * t.n) 0. in
    Array.blit t.a 0 b 0 t.n;
    t.a <- b
  end;
  t.a.(t.n) <- x;
  t.n <- t.n + 1

let count t = t.n

let sorted t =
  let s = Array.sub t.a 0 t.n in
  Array.sort Float.compare s;
  s

(* Nearest-rank quantile of a sorted array: the smallest sample with at
   least [q * n] samples at or below it. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Samples.quantile: no samples";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  s.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly above the [q]-quantile's rank: a tail percentile
   means something only when at least ten samples lie beyond it. *)
let beyond n q = n - int_of_float (Float.ceil (q *. float_of_int n))

let tail_ok n q = beyond n q >= 10

let quantile t q = quantile_sorted (sorted t) q

let median_of l =
  match l with
  | [] -> invalid_arg "Samples.median_of: empty"
  | _ ->
    let s = Array.of_list l in
    Array.sort Float.compare s;
    let n = Array.length s in
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

let sum t =
  let acc = ref 0. in
  for i = 0 to t.n - 1 do
    acc := !acc +. t.a.(i)
  done;
  !acc

let mean t = if t.n = 0 then 0. else sum t /. float_of_int t.n
