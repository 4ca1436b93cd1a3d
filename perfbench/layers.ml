(* Spans around calls into each layer's public functions.

   A traced pass wraps every layer call in a Kondo_obs.Trace span that
   carries the id of the operation (one program's debloat, one
   valuation's reads) it belongs to, and accumulates each layer's self
   time: the span's duration minus the part its child spans cover.
   Untraced passes pass [None] and call the layers bare. *)

module Trace = Kondo_obs.Trace

type t = {
  trace : Trace.t;
  self : (string, float) Hashtbl.t;     (* seconds, by span name *)
  mutable stack : float ref list;       (* child time of each open span *)
  mutable covered : float;              (* time in layer spans directly under an op *)
  mutable ops : int;
}

let create () =
  { trace = Trace.create ();
    self = Hashtbl.create 16;
    stack = [];
    covered = 0.0;
    ops = 0 }

let bump tbl name v = Hashtbl.replace tbl name (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl name))

(* Open a span; the returned closure closes it.  Spans must close in
   reverse order of opening (they nest). *)
let enter t name =
  let depth = List.length t.stack in
  let sp = Trace.begin_span t.trace ~cat:"layer" ~args:[ ("op", string_of_int t.ops) ] name in
  let child = ref 0.0 in
  t.stack <- child :: t.stack;
  let t0 = Common.now () in
  fun () ->
    let d = Common.now () -. t0 in
    t.stack <- List.tl t.stack;
    (match t.stack with parent :: _ -> parent := !parent +. d | [] -> ());
    if depth = 1 then t.covered <- t.covered +. d;
    bump t.self name (d -. !child);
    Trace.end_span t.trace sp

let span tr name f =
  match tr with
  | None -> f ()
  | Some t ->
    let leave = enter t name in
    Fun.protect ~finally:leave f

(* A root span for one operation; layer spans opened inside it share its id. *)
let op tr name f =
  match tr with
  | None -> f ()
  | Some t ->
    t.ops <- t.ops + 1;
    span tr name f

let self t name = Option.value ~default:0.0 (Hashtbl.find_opt t.self name)
let covered t = t.covered

let write_chrome t path =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Trace.to_chrome_json t.trace);
      output_char oc '\n')
