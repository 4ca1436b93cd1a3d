open Kondo_dataarray
open Kondo_interval
open Kondo_audit

type entry = {
  ds : Dataset.t;
  data_off : int; (* absolute file offset of the stored data section *)
  runs : (int * int * int) array; (* (logical lo, logical hi, packed pos); empty when dense *)
  stored_len : int;
  crc : int; (* CRC-32 of the stored section, from the header *)
}

type t = { port : Io_port.t; order : string list; entries : (string, entry) Hashtbl.t }

type missing = { path : string; dataset : string; index : int array; offset : int }

exception Data_missing of missing

let parse_header port =
  if port.Io_port.size () < 12 then raise (Binio.Corrupt "truncated superblock");
  let head = port.Io_port.pread 0 12 in
  if Bytes.sub_string head 0 4 <> "KH5\x01" then raise (Binio.Corrupt "bad magic");
  let c = Binio.cursor (Bytes.sub head 4 8) in
  let header_len = Binio.read_u32 c in
  let n = Binio.read_u32 c in
  if header_len < 12 then raise (Binio.Corrupt "bad header length");
  let rest = port.Io_port.pread 12 (header_len - 12) in
  (n, Binio.cursor rest)

let run_sum = "run lengths do not sum to stored length"

let parse_entry c =
  let name = Binio.read_str16 c in
  let dtype =
    match Dtype.of_code (Binio.read_u8 c) with
    | Some dt -> dt
    | None -> raise (Binio.Corrupt "bad dtype")
  in
  let rank = Binio.read_u8 c in
  if rank = 0 || rank > 8 then raise (Binio.Corrupt "bad rank");
  let dims = Array.init rank (fun _ -> Binio.read_u32 c) in
  let layout =
    match Binio.read_u8 c with
    | 0 -> Layout.Contiguous
    | 1 -> Layout.Chunked (Array.init rank (fun _ -> Binio.read_u32 c))
    | _ -> raise (Binio.Corrupt "bad layout tag")
  in
  let storage_tag = Binio.read_u8 c in
  let data_off = Binio.read_u64 c in
  let stored_len = Binio.read_u64 c in
  let shape = Shape.create dims in
  Layout.validate layout shape;
  let storage, runs =
    match storage_tag with
    | 0 -> (Dataset.Dense, [||])
    | 1 ->
      let nruns = Binio.read_u32 c in
      (* each run needs 16 header bytes: reject counts the header cannot hold
         before allocating *)
      if nruns * 16 > Binio.remaining c then raise (Binio.Corrupt "bad run count");
      (* [sparse_locate] binary-searches this table, so it must already be
         the writer's canonical form: non-empty runs, each starting
         strictly after the previous one's end, packed back to back. *)
      let packed = ref 0 and prev_hi = ref (-1) in
      let runs =
        Array.init nruns (fun _ ->
            let lo = Binio.read_u64 c in
            let hi = Binio.read_u64 c in
            if hi <= lo then raise (Binio.Corrupt "empty run");
            if lo <= !prev_hi then raise (Binio.Corrupt "runs unsorted or touching");
            (* checked as we go, so the running sum cannot overflow *)
            if hi - lo > stored_len - !packed then raise (Binio.Corrupt run_sum);
            let r = (lo, hi, !packed) in
            packed := !packed + (hi - lo);
            prev_hi := hi;
            r)
      in
      if !packed <> stored_len then raise (Binio.Corrupt run_sum);
      let keep =
        Interval_set.of_sorted
          (Array.fold_right (fun (lo, hi, _) acc -> Interval.make lo hi :: acc) runs [])
      in
      (Dataset.Sparse keep, runs)
    | _ -> raise (Binio.Corrupt "bad storage tag")
  in
  let n_attrs = Binio.read_u16 c in
  let attrs =
    List.init n_attrs (fun _ ->
        let aname = Binio.read_str16 c in
        match Binio.read_u8 c with
        | 0 -> (aname, Dataset.Str (Binio.read_str16 c))
        | 1 -> (aname, Dataset.Num (Binio.read_f64 c))
        | _ -> raise (Binio.Corrupt "bad attribute tag"))
  in
  let crc = Binio.read_u32 c in
  let ds = { Dataset.name; dtype; shape; layout; storage; attrs } in
  { ds; data_off; runs; stored_len; crc }

let open_port port =
  let n, c = parse_header port in
  (* every dataset entry needs at least 8 header bytes: reject counts the
     header cannot hold before allocating the table *)
  if n * 8 > Binio.remaining c + 8 then raise (Binio.Corrupt "bad dataset count");
  let entries = Hashtbl.create (max 4 (min n 65536)) in
  let order = ref [] in
  for _ = 1 to n do
    let e = parse_entry c in
    if Hashtbl.mem entries e.ds.Dataset.name then raise (Binio.Corrupt "duplicate dataset name");
    Hashtbl.add entries e.ds.Dataset.name e;
    order := e.ds.Dataset.name :: !order
  done;
  { port; order = List.rev !order; entries }

let open_file ?tracer ?(pid = 1) path =
  let port = Io_port.of_file path in
  let port = match tracer with None -> port | Some t -> Tracer.wrap t ~pid port in
  open_port port

let close t = t.port.Io_port.close ()

let path t = t.port.Io_port.path

let datasets t = List.map (fun name -> (Hashtbl.find t.entries name).ds) t.order

let entry t name =
  match Hashtbl.find_opt t.entries name with Some e -> e | None -> raise Not_found

let find t name = (entry t name).ds

(* Packed position of a logical byte range [eoff, eoff+len) of a sparse
   dataset, or None when it is not fully materialized. *)
let sparse_locate e eoff len =
  let runs = e.runs in
  let n = Array.length runs in
  (* binary search: last run with lo <= eoff *)
  let rec search lo hi =
    if lo > hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let rlo, rhi, packed = runs.(mid) in
      if eoff < rlo then search lo (mid - 1)
      else if eoff >= rhi then search (mid + 1) hi
      else if eoff + len <= rhi then Some (packed + (eoff - rlo))
      else None
    end
  in
  search 0 (n - 1)

let read_element_bytes t e idx =
  let ds = e.ds in
  let esz = Dtype.size ds.Dataset.dtype in
  let eoff = Dataset.element_offset ds idx in
  match ds.Dataset.storage with
  | Dataset.Dense -> t.port.Io_port.pread (e.data_off + eoff) esz
  | Dataset.Sparse _ -> (
    match sparse_locate e eoff esz with
    | Some packed -> t.port.Io_port.pread (e.data_off + packed) esz
    | None ->
      raise
        (Data_missing { path = path t; dataset = ds.Dataset.name; index = Array.copy idx; offset = eoff }))

let read_element t name idx =
  let e = entry t name in
  let buf = read_element_bytes t e idx in
  Dtype.decode e.ds.Dataset.dtype buf 0

let read_slab t name slab f =
  let e = entry t name in
  let ds = e.ds in
  let esz = Dtype.size ds.Dataset.dtype in
  match ds.Dataset.storage with
  | Dataset.Sparse _ ->
    Hyperslab.iter ~clip:ds.Dataset.shape slab (fun idx ->
        let buf = read_element_bytes t e idx in
        f idx (Dtype.decode ds.Dataset.dtype buf 0))
  | Dataset.Dense ->
    (* Batch byte-adjacent elements into one pread each, the way an
       application reads nbytes at startoff (Fig. 2b). *)
    let start = ref (-1) in
    let indices = ref [] in
    let count = ref 0 in
    let flush () =
      if !count > 0 then begin
        let buf = t.port.Io_port.pread (e.data_off + !start) (!count * esz) in
        List.iteri
          (fun i idx ->
            let pos = (!count - 1 - i) * esz in
            f idx (Dtype.decode ds.Dataset.dtype buf pos))
          !indices;
        start := -1;
        indices := [];
        count := 0
      end
    in
    Hyperslab.iter ~clip:ds.Dataset.shape slab (fun idx ->
        let eoff = Dataset.element_offset ds idx in
        if !count > 0 && eoff = !start + (!count * esz) then begin
          indices := Array.copy idx :: !indices;
          incr count
        end
        else begin
          flush ();
          start := eoff;
          indices := [ Array.copy idx ];
          count := 1
        end);
    flush ()

let mean_slab t name slab =
  let sum = ref 0.0 and n = ref 0 in
  read_slab t name slab (fun _ v ->
      sum := !sum +. v;
      incr n);
  if !n = 0 then 0.0 else !sum /. float_of_int !n

let read_raw t name iv =
  let e = entry t name in
  if Dataset.is_sparse e.ds then invalid_arg "File.read_raw: sparse dataset";
  let len = Interval.length iv in
  if iv.Interval.lo < 0 || iv.Interval.hi > Dataset.logical_bytes e.ds then
    invalid_arg "File.read_raw: out of section";
  t.port.Io_port.pread (e.data_off + iv.Interval.lo) len

let file_size t = t.port.Io_port.size ()

let verify t name =
  let e = entry t name in
  e.stored_len = 0
  || Binio.crc32 (t.port.Io_port.pread e.data_off e.stored_len) = e.crc

let verify_all t = List.for_all (fun name -> verify t name) t.order
