(* Order statistics for benchmark samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

type tail = { per_mille : int; value : float; samples : int }

(* Candidate percentiles, highest first, in tenths of a percent. *)
let ladder = [ 999; 990; 950; 900; 750; 500 ]

let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  (* nearest rank r = ceil(p * n); the samples beyond it are n - r *)
  let rank pm = ((pm * n) + 999) / 1000 in
  List.find_map
    (fun pm ->
      let r = rank pm in
      if r >= 1 && n - r >= 10 then Some { per_mille = pm; value = a.(r - 1); samples = n }
      else None)
    ladder

let tail_label t =
  if t.per_mille mod 10 = 0 then Printf.sprintf "p%d" (t.per_mille / 10)
  else Printf.sprintf "p%d.%d" (t.per_mille / 10) (t.per_mille mod 10)
