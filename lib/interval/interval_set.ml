type t = Interval.t list (* sorted by lo; disjoint; pairwise non-touching *)

let empty = []
let is_empty t = t = []

let add t iv =
  if Interval.is_empty iv then t
  else begin
    (* Split into members strictly before, touching, and strictly after. *)
    let before, rest = List.partition (fun m -> m.Interval.hi < iv.Interval.lo) t in
    let touching, after = List.partition (fun m -> Interval.touches m iv) rest in
    let merged = List.fold_left Interval.union iv touching in
    before @ (merged :: after)
  end

let of_sorted l =
  let rec go acc cur = function
    | [] -> List.rev (match cur with None -> acc | Some c -> c :: acc)
    | iv :: rest ->
      if Interval.is_empty iv then go acc cur rest
      else begin
        match cur with
        | None -> go acc (Some iv) rest
        | Some c ->
          if iv.Interval.lo < c.Interval.lo then invalid_arg "Interval_set.of_sorted: unsorted";
          if Interval.touches c iv then go acc (Some (Interval.union c iv)) rest
          else go (c :: acc) (Some iv) rest
      end
  in
  go [] None l

let of_list l = of_sorted (List.stable_sort Interval.compare l)

let to_list t = t

let mem t x = List.exists (fun m -> Interval.contains_point m x) t

let covers t iv = Interval.is_empty iv || List.exists (fun m -> Interval.contains m iv) t

let total_length t = List.fold_left (fun acc m -> acc + Interval.length m) 0 t

let cardinal = List.length

let union a b = of_sorted (List.merge Interval.compare a b)

let complement t ~within =
  let rec gaps cursor = function
    | [] -> if cursor < within.Interval.hi then [ Interval.make cursor within.Interval.hi ] else []
    | m :: rest ->
      let lo = max m.Interval.lo within.Interval.lo and hi = min m.Interval.hi within.Interval.hi in
      if hi <= within.Interval.lo then gaps cursor rest
      else begin
        let head = if cursor < lo then [ Interval.make cursor (min lo within.Interval.hi) ] else [] in
        head @ gaps (max cursor hi) rest
      end
  in
  gaps within.Interval.lo t

let overlapping t iv = List.filter (fun m -> Interval.overlaps m iv) t

let equal a b = a = b

let to_string t = String.concat " " (List.map Interval.to_string t)
