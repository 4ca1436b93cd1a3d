open Kondo_prng
open Kondo_dataarray
open Kondo_workload

let precision ~truth ~approx =
  let denom = Index_set.cardinal approx in
  if denom = 0 then 1.0
  else float_of_int (Index_set.inter_cardinal truth approx) /. float_of_int denom

let recall ~truth ~approx =
  let denom = Index_set.cardinal truth in
  if denom = 0 then 1.0
  else float_of_int (Index_set.inter_cardinal truth approx) /. float_of_int denom

let bloat_fraction s = 1.0 -. Index_set.fraction s

let f1 ~truth ~approx =
  let p = precision ~truth ~approx and r = recall ~truth ~approx in
  if p +. r = 0.0 then 0.0 else 2.0 *. p *. r /. (p +. r)

let valuation_missed p ~approx v =
  List.exists (fun slab -> not (Index_set.covers_slab approx slab)) (p.Program.plan v)

let missed_valuation_rate ?(max_enumerate = 100_000) ?(sample = 20_000) ?(seed = 7) p ~approx =
  let total = Program.param_count p in
  if total <= max_enumerate then begin
    let missed = ref 0 and n = ref 0 in
    Program.iter_param_space p (fun v ->
        incr n;
        if valuation_missed p ~approx v then incr missed);
    if !n = 0 then 0.0 else float_of_int !missed /. float_of_int !n
  end
  else begin
    let rng = Rng.create seed in
    let missed = ref 0 in
    for _ = 1 to sample do
      let v =
        Array.map (fun (lo, hi) -> Float.round (Rng.float_in rng lo hi)) p.Program.param_space
      in
      if valuation_missed p ~approx v then incr missed
    done;
    float_of_int !missed /. float_of_int sample
  end

type accuracy = { precision : float; recall : float; f1 : float; bloat : float }

let accuracy ~truth ~approx =
  { precision = precision ~truth ~approx;
    recall = recall ~truth ~approx;
    f1 = f1 ~truth ~approx;
    bloat = bloat_fraction approx }
