type t = { start : int array; stride : int array; count : int array; block : int array }

let make ~start ?stride ?count ?block () =
  let rank = Array.length start in
  let dflt v = Array.make rank v in
  let stride = Option.value stride ~default:(dflt 1) in
  let count = Option.value count ~default:(dflt 1) in
  let block = Option.value block ~default:(dflt 1) in
  if Array.length stride <> rank || Array.length count <> rank || Array.length block <> rank
  then invalid_arg "Hyperslab.make: rank mismatch";
  Array.iter (fun v -> if v < 1 then invalid_arg "Hyperslab.make: stride < 1") stride;
  Array.iter (fun v -> if v < 1 then invalid_arg "Hyperslab.make: count < 1") count;
  Array.iter (fun v -> if v < 1 then invalid_arg "Hyperslab.make: block < 1") block;
  { start = Array.copy start; stride; count; block }

let point start = make ~start ()

let block_at start extent =
  make ~start ~block:extent ()

let rank t = Array.length t.start

let nelems t =
  let n = ref 1 in
  for k = 0 to rank t - 1 do
    n := !n * t.count.(k) * t.block.(k)
  done;
  !n

let iter ?clip t f =
  let r = rank t in
  let cur = Array.make r 0 in
  let ok idx = match clip with None -> true | Some shape -> Shape.in_bounds shape idx in
  (* Nested walk: per dimension, choose a block number then an in-block
     offset; recursion depth is the rank. *)
  let rec walk k =
    if k = r then begin
      if ok cur then f cur
    end
    else
      for c = 0 to t.count.(k) - 1 do
        let base = t.start.(k) + (c * t.stride.(k)) in
        for b = 0 to t.block.(k) - 1 do
          cur.(k) <- base + b;
          walk (k + 1)
        done
      done
  in
  walk 0

let iter_runs ~clip t f =
  let dims = Shape.dims clip in
  let r = rank t in
  if Array.length dims = r then begin
    (* [prefix] is the row-major linear index of the coordinates chosen
       along dimensions [0, k); each block is clipped to [0, dims.(k)). *)
    let rec walk k prefix =
      let d = dims.(k) and start = t.start.(k) and stride = t.stride.(k) in
      let block = t.block.(k) and count = t.count.(k) in
      if k = r - 1 then begin
        let row = prefix * d in
        if stride <= block then begin
          (* blocks touch or overlap: their union is one interval *)
          let lo = max 0 start and hi = min d (start + ((count - 1) * stride) + block) in
          if lo < hi then f (row + lo) (hi - lo)
        end
        else
          for c = 0 to count - 1 do
            let base = start + (c * stride) in
            let lo = max 0 base and hi = min d (base + block) in
            if lo < hi then f (row + lo) (hi - lo)
          done
      end
      else
        for c = 0 to count - 1 do
          let base = start + (c * stride) in
          for x = max 0 base to min d (base + block) - 1 do
            walk (k + 1) ((prefix * d) + x)
          done
        done
    in
    walk 0 0
  end

let mem t idx =
  Array.length idx = rank t
  &&
  let ok = ref true in
  for k = 0 to rank t - 1 do
    let rel = idx.(k) - t.start.(k) in
    if rel < 0 then ok := false
    else begin
      (* The candidate block with the smallest non-negative in-block offset
         is the largest c with c*stride <= rel, capped by count. *)
      let c = min (t.count.(k) - 1) (rel / t.stride.(k)) in
      if rel - (c * t.stride.(k)) >= t.block.(k) then ok := false
    end
  done;
  !ok

let bbox t =
  let r = rank t in
  let lo = Array.copy t.start in
  let hi =
    Array.init r (fun k -> t.start.(k) + ((t.count.(k) - 1) * t.stride.(k)) + t.block.(k) - 1)
  in
  (lo, hi)

let to_string t =
  let arr a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Printf.sprintf "slab(start=[%s] stride=[%s] count=[%s] block=[%s])" (arr t.start)
    (arr t.stride) (arr t.count) (arr t.block)
