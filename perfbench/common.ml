(* Shared plumbing: files, clocks, and the per-pass record every
   workload returns. *)

let now = Unix.gettimeofday

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Unix.mkdir path 0o755
  end

let file_size path = (Unix.stat path).Unix.st_size

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Write a program's dense data file and flush it to disk, so the
   kernel's write-back of set-up data does not run during measured
   passes. *)
let write_source p path =
  Kondo_workload.Datafile.write_for ~path p;
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)

(* A pass's outcome.  [counts] are the deterministic layer counts that
   must repeat exactly across passes of one seed; [layers] are the
   per-layer readings of a traced pass (self seconds and ratios). *)
type pass = {
  wall : float;                       (* seconds of the measured work *)
  op_ms : float list;                 (* latency of each operation *)
  attempted : int;
  failed : int;                       (* failed, degraded, or refused operations *)
  recall : int * int;                 (* |truth ∩ approx|, |truth| *)
  kept : int * int;                   (* kept data bytes, source data bytes *)
  counts : (string * int) list;
  layers : (string * float) list;
  errors : string list;               (* failed output checks *)
}

let empty_pass =
  { wall = 0.0;
    op_ms = [];
    attempted = 0;
    failed = 0;
    recall = (0, 0);
    kept = (0, 0);
    counts = [];
    layers = [];
    errors = [] }

let add2 (a, b) (c, d) = (a + c, b + d)

(* Dataset element size times cardinality: the bytes a set of indices keeps. *)
let set_bytes p s =
  Kondo_dataarray.Index_set.cardinal s
  * Kondo_dataarray.Dtype.size p.Kondo_workload.Program.dtype

let data_bytes p =
  Kondo_dataarray.Shape.nelems p.Kondo_workload.Program.shape
  * Kondo_dataarray.Dtype.size p.Kondo_workload.Program.dtype

(* Every index the schedule observed must read back its original value
   from the debloated file. *)
let check_observed p ~dst observed =
  let f = Kondo_h5.File.open_file dst in
  let bad = ref 0 in
  Fun.protect
    ~finally:(fun () -> Kondo_h5.File.close f)
    (fun () ->
      Kondo_dataarray.Index_set.iter observed (fun idx ->
          match Kondo_h5.File.read_element f p.Kondo_workload.Program.dataset idx with
          | v when v = Kondo_workload.Datafile.fill idx -> ()
          | _ | (exception Kondo_h5.File.Data_missing _) -> incr bad));
  if !bad = 0 then []
  else
    [ Printf.sprintf "%s: %d observed indices do not read back from %s" p.Kondo_workload.Program.name
        !bad dst ]

(* The reference ground truth the recall check uses, computed in set-up.
   This is Program.ground_truth without its process-wide memo, so every
   set-up pays the full cost and none keeps its set alive. *)
let reference_truth (p : Kondo_workload.Program.t) =
  match p.truth with
  | Some pred ->
    let s = Kondo_dataarray.Index_set.create p.shape in
    Kondo_dataarray.Shape.iter p.shape (fun idx ->
        if pred idx then Kondo_dataarray.Index_set.add s idx);
    s
  | None -> Kondo_workload.Program.exhaustive_truth p

let recall_of truth approx =
  ( Kondo_dataarray.Index_set.inter_cardinal truth approx,
    Kondo_dataarray.Index_set.cardinal truth )

(* Read a process-global registry instrument by name (get-or-create
   returns the instrument the library registered). *)
let counter name = Kondo_obs.Registry.(counter_value (counter default name))
let histogram_sum name = Kondo_obs.Registry.(histogram_sum (histogram default name))
