(* Seeded Zipf(s) ranks by inverse CDF over a precomputed table. *)

type t = { cdf : float array; rng : Kondo_prng.Rng.t }

let create ~n ~s ~seed =
  if n < 1 then invalid_arg "Zipf.create: n < 1";
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for k = 0 to n - 1 do
    acc := !acc +. (1.0 /. (float_of_int (k + 1) ** s));
    cdf.(k) <- !acc
  done;
  Array.iteri (fun k c -> cdf.(k) <- c /. !acc) cdf;
  { cdf; rng = Kondo_prng.Rng.create seed }

let draw t =
  let u = Kondo_prng.Rng.float t.rng 1.0 in
  (* least k with u < cdf.(k) *)
  let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if u < t.cdf.(mid) then hi := mid else lo := mid + 1
  done;
  !lo
