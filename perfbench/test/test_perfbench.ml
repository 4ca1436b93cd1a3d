(* Tests of the benchmark's percentile helper and Zipf generator. *)

open Perfbench_stats

let fails = ref 0

let check name ok =
  if not ok then begin
    incr fails;
    Printf.printf "FAIL %s\n" name
  end

let range n = List.init n (fun i -> float_of_int (i + 1))

let () =
  check "median odd" (Stats.median [ 3.0; 1.0; 2.0 ] = 2.0);
  check "median even" (Stats.median [ 4.0; 1.0; 3.0; 2.0 ] = 2.5);
  (* 1000 samples: p99 is rank 990, exactly ten beyond it *)
  (match Stats.tail (range 1000) with
  | Some t -> check "p99 at n=1000" (t.Stats.per_mille = 990 && t.Stats.value = 990.0 && t.Stats.samples = 1000)
  | None -> check "p99 at n=1000" false);
  (* 999 samples: p99 would leave 9 beyond, so p95 is the highest *)
  (match Stats.tail (range 999) with
  | Some t -> check "p95 at n=999" (t.Stats.per_mille = 950 && Stats.tail_label t = "p95")
  | None -> check "p95 at n=999" false);
  (match Stats.tail (range 20000) with
  | Some t -> check "p99.9 at n=20000" (Stats.tail_label t = "p99.9" && t.Stats.value = 19980.0)
  | None -> check "p99.9 at n=20000" false);
  check "p50 needs 20 samples" (Stats.tail (range 19) = None);
  (match Stats.tail (range 20) with
  | Some t -> check "p50 at n=20" (t.Stats.per_mille = 500 && t.Stats.value = 10.0)
  | None -> check "p50 at n=20" false);
  check "no tail below 11" (Stats.tail (range 10) = None);
  let draws seed k =
    let z = Zipf.create ~n:1000 ~s:1.0 ~seed in
    List.init k (fun _ -> Zipf.draw z)
  in
  check "zipf deterministic" (draws 7 500 = draws 7 500);
  check "zipf seeds differ" (draws 7 500 <> draws 8 500);
  let xs = draws 3 20000 in
  check "zipf in range" (List.for_all (fun r -> r >= 0 && r < 1000) xs);
  let count r = List.length (List.filter (( = ) r) xs) in
  (* P(rank 0) = 1 / H_1000 ~ 0.1336 *)
  let p0 = float_of_int (count 0) /. 20000.0 in
  check "zipf head share" (p0 > 0.12 && p0 < 0.15);
  check "zipf decreasing" (count 0 > count 1 && count 1 > count 9 && count 9 > count 99);
  let z1 = Zipf.create ~n:1 ~s:1.0 ~seed:1 in
  check "zipf single rank" (List.init 10 (fun _ -> Zipf.draw z1) = List.init 10 (fun _ -> 0));
  if !fails > 0 then exit 1;
  print_endline "perfbench stats/zipf: all checks passed"
