(* Host time on the nanosecond monotonic clock. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let since_ns t0 = now_ns () - t0

(* [time f] runs [f] and returns its result with the host nanoseconds it
   took. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_ns t0)
