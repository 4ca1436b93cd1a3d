type t = Contiguous | Chunked of int array

let validate t shape =
  match t with
  | Contiguous -> ()
  | Chunked cdims ->
    if Array.length cdims <> Shape.rank shape then
      invalid_arg "Layout: chunk rank mismatch";
    Array.iter (fun d -> if d <= 0 then invalid_arg "Layout: non-positive chunk dim") cdims

let ceil_div a b = (a + b - 1) / b

let chunk_grid t shape =
  match t with
  | Contiguous -> Array.map (fun _ -> 1) (Shape.dims shape)
  | Chunked cdims ->
    let dims = Shape.dims shape in
    Array.init (Array.length dims) (fun k -> ceil_div dims.(k) cdims.(k))

let chunk_nelems = function
  | Contiguous -> invalid_arg "Layout.chunk_nelems: contiguous"
  | Chunked cdims -> Array.fold_left ( * ) 1 cdims

let storage_nelems t shape =
  match t with
  | Contiguous -> Shape.nelems shape
  | Chunked _ ->
    let grid = chunk_grid t shape in
    Array.fold_left ( * ) 1 grid * chunk_nelems t

let element_offset t shape dt idx =
  let esz = Dtype.size dt in
  match t with
  | Contiguous -> Shape.linearize shape idx * esz
  | Chunked cdims ->
    let rank = Array.length cdims in
    let grid = chunk_grid t shape in
    let grid_shape = Shape.create grid and chunk_shape = Shape.create cdims in
    let chunk_idx = Array.init rank (fun k -> idx.(k) / cdims.(k)) in
    let within = Array.init rank (fun k -> idx.(k) mod cdims.(k)) in
    let chunk_rank = Shape.linearize grid_shape chunk_idx in
    ((chunk_rank * chunk_nelems t) + Shape.linearize chunk_shape within) * esz

let index_of_offset t shape dt off =
  let esz = Dtype.size dt in
  if off mod esz <> 0 then None
  else begin
    let lin = off / esz in
    match t with
    | Contiguous -> if lin < Shape.nelems shape then Some (Shape.delinearize shape lin) else None
    | Chunked cdims ->
      let rank = Array.length cdims in
      let grid = chunk_grid t shape in
      let grid_shape = Shape.create grid and chunk_shape = Shape.create cdims in
      let per_chunk = chunk_nelems t in
      let chunk_rank = lin / per_chunk and within_rank = lin mod per_chunk in
      if chunk_rank >= Shape.nelems grid_shape then None
      else begin
        let chunk_idx = Shape.delinearize grid_shape chunk_rank in
        let within = Shape.delinearize chunk_shape within_rank in
        let idx = Array.init rank (fun k -> (chunk_idx.(k) * cdims.(k)) + within.(k)) in
        if Shape.in_bounds shape idx then Some idx else None (* chunk padding *)
      end
  end

let contiguous_run t shape dt idx =
  ignore dt;
  match t with
  | Contiguous ->
    (* Remaining elements of the row-major tail from idx. *)
    Shape.nelems shape - Shape.linearize shape idx
  | Chunked cdims ->
    (* To the end of the chunk's row, or of the array's row at a ragged
       edge, where chunk padding follows. *)
    let last = Array.length cdims - 1 in
    min (cdims.(last) - (idx.(last) mod cdims.(last))) ((Shape.dims shape).(last) - idx.(last))

let to_string = function
  | Contiguous -> "contiguous"
  | Chunked cdims ->
    "chunked:" ^ String.concat "x" (Array.to_list (Array.map string_of_int cdims))
